//! Constraint-backed indices and the `fetch` primitive.
//!
//! Each access constraint `R(X → Y, N)` comes with an index that, given an
//! `X`-value `ā`, returns `D_{R:XY}(X = ā)` — the `X∪Y` projections of the
//! tuples of `R` matching `ā` — in time `O(N)`.  [`InternedAccessIndex`] is
//! the one hash index realising that contract, keyed and valued by interned
//! ids only, and [`IndexedDatabase`] bundles a [`Database`] with one such
//! index per constraint of an [`AccessSchema`], which is what bounded query
//! plans execute against.  The same structure, built by the same function,
//! is what a relation keeps per key ([`Relation::keyed_index`]).

use crate::access::{AccessConstraint, AccessSchema};
use crate::database::Database;
use crate::delta::{DeltaLog, RelationDelta};
use crate::error::DataError;
use crate::intern::ValueId;
use crate::relation::Relation;
use crate::schema::RelationSchema;
use crate::stats::FetchStats;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Fan-out of the sharded group maps: every index has this many shard
/// slots, however small the relation, so a key's shard never moves between
/// versions.  Only the slots some key lands in hold a map.
const SHARDS: usize = 256;

/// The shard a key lives in.  Deterministic, so an index and every version
/// patched from it agree on the placement.
fn shard_of<T: Hash>(key: &[T]) -> usize {
    let mut hasher = ShardHasher(0);
    key.hash(&mut hasher);
    (hasher.0 >> 32) as usize % SHARDS
}

/// A multiply-rotate hash: a few cycles per word where the maps' own SipHash
/// takes tens of nanoseconds, which would double the cost of a probe.  It
/// only spreads keys over shards — a skewed spread costs sharing, never
/// correctness — so it need not resist crafted keys.
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

/// One shard of an [`InternedAccessIndex`]: interned key → the group's
/// rows, flat and row-major.
type IdShard = HashMap<Vec<ValueId>, Box<[ValueId]>>;

/// The source counts beside one [`IdShard`]: each row of its groups that
/// more than one source tuple projects to, with that number (≥ 2).  A row a
/// group holds and this map does not has exactly one source.
type SourceShard = HashMap<Box<[ValueId]>, usize>;

/// An id-native hash index: probing with an interned key returns the whole
/// group under it as a flat row-major id slice, rows in ascending id order —
/// a canonical order, so a patched index equals a rebuilt one.  One
/// structure and one builder ([`InternedAccessIndex::from_relation`]) serve
/// both things indexed this way:
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
/// A group holds each projection once, however many source tuples project
/// to it.  What keeps removals patchable is counted *beside* the groups, in
/// a map sharded like them: a projection with several sources has an entry
/// there, a removal decrements it, and only the last source's removal takes
/// the row out of its group.  A probe reads the groups alone, so a read
/// never sees the counts; and the map is empty wherever `X ∪ Y` covers the
/// relation — every keyed index, since a relation's tuples are a set.
///
/// Sharded by the hash of the interned key, so a successor version shares
/// every shard its delta did not touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedAccessIndex {
    /// Ids per row — always ≥ 1 (constraints require a non-empty `Y`, keyed
    /// indexes a non-nullary relation).
    arity: usize,
    /// `None` for a shard holding no group: a small relation's index
    /// allocates only the shards its keys land in.  A shard a patch empties
    /// goes back to `None`, so a patched index equals a rebuilt one.
    shards: Vec<Option<Arc<IdShard>>>,
    /// The source counts of `shards[i]`'s groups, copy-on-write like them,
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

/// Give back a slot whose map a removal emptied.
fn release_if_empty<K, V>(slot: &mut Option<Arc<HashMap<K, V>>>) {
    if slot.as_ref().is_some_and(|map| map.is_empty()) {
        *slot = None;
    }
}

/// True when two slots are the same allocation, or both unallocated.
fn same_slot<T>(a: &Option<Arc<T>>, b: &Option<Arc<T>>) -> bool {
    a.as_ref().map(Arc::as_ptr) == b.as_ref().map(Arc::as_ptr)
}

/// The ids of `row` at `positions`.
fn key_of<'a>(row: &'a [ValueId], positions: &'a [usize]) -> impl Iterator<Item = ValueId> + 'a {
    positions.iter().map(|&p| row[p])
}

impl InternedAccessIndex {
    /// Index the tuples of `relation`: each projects to the row of its ids
    /// at `row_positions`, keyed by that row's ids at `key_in_row`.  One pass
    /// copies every projection of the stored id rows — interned when they
    /// were inserted, so nothing is interned here — into a flat buffer;
    /// sorting the rows by key, then
    /// by row, cuts the buffer into key groups in ascending id order with
    /// duplicate projections adjacent, so each key costs one key and one
    /// group allocation, a row none, and a projection with several sources
    /// one count.
    pub(crate) fn from_relation(
        relation: &Relation,
        row_positions: &[usize],
        key_in_row: &[usize],
    ) -> Self {
        let arity = row_positions.len();
        let mut flat = Vec::with_capacity(relation.len() * arity);
        for tuple in relation.iter() {
            flat.extend(row_positions.iter().map(|&p| tuple.ids()[p]));
        }
        let mut rows: Vec<&[ValueId]> = flat.chunks_exact(arity).collect();
        rows.sort_unstable_by(|a, b| {
            let by_key = key_of(a, key_in_row).cmp(key_of(b, key_in_row));
            by_key.then_with(|| a.cmp(b))
        });
        let same_key =
            |a: &&[ValueId], b: &&[ValueId]| key_of(a, key_in_row).eq(key_of(b, key_in_row));
        let keys = rows.chunk_by(same_key).count();
        let mut shards: Vec<Option<IdShard>> = vec![None; SHARDS];
        let mut sources: Vec<Option<SourceShard>> = vec![None; SHARDS];
        let mut total = 0;
        for group in rows.chunk_by(same_key) {
            let key: Vec<ValueId> = key_of(group[0], key_in_row).collect();
            let shard = shard_of(&key);
            let mut ids = Vec::with_capacity(group.len() * arity);
            for copies in group.chunk_by(|a, b| a == b) {
                ids.extend_from_slice(copies[0]);
                if copies.len() > 1 {
                    let counts = sources[shard].get_or_insert_with(SourceShard::new);
                    counts.insert(copies[0].into(), copies.len());
                }
            }
            total += ids.len() / arity;
            let groups = shards[shard].get_or_insert_with(|| IdShard::with_capacity(keys / SHARDS));
            groups.insert(key, ids.into());
        }
        InternedAccessIndex {
            arity,
            shards: shards.into_iter().map(|s| s.map(Arc::new)).collect(),
            sources: Arc::new(sources.into_iter().map(|s| s.map(Arc::new)).collect()),
            keys,
            rows: total,
        }
    }

    /// Index the tuples of `relation`, whole, on `key_positions`
    /// ([`Relation::keyed_index`]).
    pub(crate) fn keyed(relation: &Relation, key_positions: &[usize]) -> Self {
        let whole: Vec<usize> = (0..relation.schema().arity()).collect();
        Self::from_relation(relation, &whole, key_positions)
    }

    /// Replace (or, with `None`, drop) the group under `key`, forking the
    /// one shard it lives in if that shard is still shared.
    fn replace_group(&mut self, key: Vec<ValueId>, group: Option<Box<[ValueId]>>) {
        let slot = &mut self.shards[shard_of(&key)];
        let new_rows = group.as_ref().map(|rows| rows.len() / self.arity);
        let old = match group {
            Some(rows) => make_mut(slot).insert(key, rows),
            None => {
                let old = make_mut(slot).remove(&key);
                release_if_empty(slot);
                old
            }
        };
        let old_rows = old.as_ref().map(|rows| rows.len() / self.arity);
        self.rows = self.rows + new_rows.unwrap_or(0) - old_rows.unwrap_or(0);
        self.keys = self.keys + usize::from(new_rows.is_some()) - usize::from(old_rows.is_some());
    }

    /// Count one more (`insert`) or one fewer source tuple projecting to
    /// `row` under `key`.  The row enters its group, in id order, with its
    /// first source and leaves with its last — the key with its last row;
    /// in between only its count beside the group moves.  `false`, and
    /// nothing changed, for a removal of a row the group does not hold.
    /// Forks at most one shard of the groups or of the counts; `O(|group|)`.
    pub(crate) fn patch(&mut self, key: Vec<ValueId>, row: &[ValueId], insert: bool) -> bool {
        let shard = shard_of(&key);
        let group: Vec<&[ValueId]> = self.probe(&key).chunks_exact(self.arity).collect();
        let counts = self.sources[shard].as_deref();
        let count = counts.and_then(|c| c.get(row)).copied().unwrap_or(1);
        let rows = match (group.binary_search(&row), insert) {
            (Err(_), false) => return false,
            (Err(at), true) => [&group[..at], &[row], &group[at..]].concat(),
            (Ok(at), false) if count == 1 => [&group[..at], &group[at + 1..]].concat(),
            (Ok(_), _) => {
                // Another source projects to the row too: it stays put.
                let count = if insert { count + 1 } else { count - 1 };
                let slot = &mut Arc::make_mut(&mut self.sources)[shard];
                match count {
                    1 => make_mut(slot).remove(row),
                    _ => make_mut(slot).insert(row.into(), count),
                };
                release_if_empty(slot);
                return true;
            }
        };
        let group = (!rows.is_empty()).then(|| rows.concat().into());
        self.replace_group(key, group);
        true
    }

    /// Arity of the returned rows (`|X ∪ Y|`, or the relation's arity).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Retrieve the group under `key` as a flat id slice of `n · arity()`
    /// ids (`n` tuples, in ascending id order).  Empty for absent keys.
    pub fn probe(&self, key: &[ValueId]) -> &[ValueId] {
        match self.shards[shard_of(key)]
            .as_deref()
            .and_then(|s| s.get(key))
        {
            Some(rows) => rows,
            None => &[],
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

    /// The mean group size, rounded up and never below 1 — the
    /// cardinality statistic the executor's cost heuristics consume
    /// (expected `|D_{R:XY}(X = ā)|` for a random indexed key).
    pub fn avg_group_len(&self) -> usize {
        self.rows.div_ceil(self.keys.max(1)).max(1)
    }

    /// How many shards — groups and counts alike — are the same allocation
    /// as `other`'s in the same position, or unallocated in both (out of
    /// [`InternedAccessIndex::shard_count`]): what a patched version still
    /// shares with its predecessor.
    pub fn shared_shards(&self, other: &InternedAccessIndex) -> usize {
        let shared = |i: &usize| {
            same_slot(&self.shards[*i], &other.shards[*i])
                && same_slot(&self.sources[*i], &other.sources[*i])
        };
        (0..SHARDS).filter(shared).count()
    }

    /// The fixed number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Vectorised probe: look up a whole batch of keys (`n_keys` keys stored
    /// contiguously in `keys_flat`, each of `keys_flat.len() / n_keys` ids)
    /// and append every matching `X ∪ Y` row to `out`, recording each probe
    /// in `stats` exactly as `n_keys` successive [`InternedAccessIndex::probe`]
    /// calls would — one `fetch_call` per key, one fetched tuple per matching
    /// row, in batch order.  Returns the number of rows appended.
    pub fn probe_batch(
        &self,
        keys_flat: &[ValueId],
        n_keys: usize,
        out: &mut Vec<ValueId>,
        stats: &mut FetchStats,
    ) -> usize {
        let before = out.len();
        if n_keys == 0 {
            return 0;
        }
        let key_len = keys_flat.len() / n_keys;
        debug_assert_eq!(keys_flat.len(), key_len * n_keys);
        if key_len == 0 {
            // X = ∅: every "key" is the empty tuple; probe it once per key so
            // the per-probe accounting matches the scalar path.
            for _ in 0..n_keys {
                let rows = self.probe(&[]);
                stats.record_fetch(rows.len() / self.arity);
                out.extend_from_slice(rows);
            }
        } else {
            for key in keys_flat.chunks_exact(key_len) {
                let rows = self.probe(key);
                stats.record_fetch(rows.len() / self.arity);
                out.extend_from_slice(rows);
            }
        }
        (out.len() - before) / self.arity
    }
}

/// Where a constraint's index rows come from: the positions of its `X ∪ Y`
/// in the relation, and of the key in a row — the first `|X|`.
fn constraint_layout(
    constraint: &AccessConstraint,
    schema: &RelationSchema,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let key = (0..constraint.x().len()).collect();
    Ok((schema.positions(&constraint.xy())?, key))
}

/// Build the index of `constraint` over the current contents of `db`.
fn build_index(constraint: &AccessConstraint, db: &Database) -> Result<InternedAccessIndex> {
    let rel = db.expect_relation(constraint.relation())?;
    let (row, key) = constraint_layout(constraint, rel.schema())?;
    Ok(InternedAccessIndex::from_relation(rel, &row, &key))
}

/// `index`, of `constraint` over a relation of `schema`, with an exact delta
/// of that relation patched in: one fewer source per removed tuple, one
/// more per inserted one.  A delta tuple's values were interned when it was
/// stored, so they are looked up, not interned.  Fails with
/// [`DataError::IndexDeltaMismatch`] when the delta removes a projection the
/// index does not hold, or holds a value no relation stores: the delta does
/// not lead from this index's contents, and patching on would yield an
/// index that disagrees with its relation.
fn patched(
    index: &InternedAccessIndex,
    constraint: &AccessConstraint,
    schema: &RelationSchema,
    delta: &RelationDelta,
) -> Result<InternedAccessIndex> {
    let (row_positions, key_in_row) = constraint_layout(constraint, schema)?;
    let mut next = index.clone();
    // The net delta's inserted/removed sets are disjoint, so the order of
    // application is immaterial.
    let removed = delta.removed.iter().map(|t| (t, false));
    let mismatch = || DataError::IndexDeltaMismatch(schema.name().to_string());
    for (tuple, insert) in removed.chain(delta.inserted.iter().map(|t| (t, true))) {
        let row = row_positions.iter().map(|&p| ValueId::lookup(&tuple[p]));
        let row: Vec<ValueId> = row.collect::<Option<_>>().ok_or_else(mismatch)?;
        if !next.patch(key_of(&row, &key_in_row).collect(), &row, insert) {
            return Err(mismatch());
        }
    }
    Ok(next)
}

/// A database together with the indices of an access schema.  This is the
/// runtime object bounded query plans execute against: views are cached
/// separately (see `bqr-plan`), and base data is reachable *only* through
/// [`IndexedDatabase::fetch_ids`] and its batched and `Value` forms.
#[derive(Debug, Clone)]
pub struct IndexedDatabase {
    db: Database,
    access: AccessSchema,
    /// One index per constraint, in the order of `access.constraints()`.
    /// Behind `Arc` so successive versions share the indexes of untouched
    /// relations.
    indexes: Vec<Arc<InternedAccessIndex>>,
}

impl IndexedDatabase {
    /// Build all indices for `access` over `db`, eagerly and in full, from
    /// the id rows the relations store — nothing is interned here, and no
    /// read builds a constraint index.
    ///
    /// This does *not* require `db |= access`; callers that need the
    /// cardinality guarantee should check
    /// [`AccessSchema::satisfied_by`] first (the decision procedures only
    /// promise bounded fetches on satisfying instances).
    pub fn build(db: Database, access: AccessSchema) -> Result<Self> {
        crate::faults::check(crate::faults::sites::INDEX_BUILD)?;
        access.validate(db.schema())?;
        let indexes = access
            .constraints()
            .map(|c| build_index(c, &db).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        Ok(IndexedDatabase {
            db,
            access,
            indexes,
        })
    }

    /// Re-index `db` (the successor of this instance's database) from a
    /// write delta, touching only the indexes of changed relations:
    /// untouched constraints share this instance's index by `Arc`; exact
    /// deltas — inserts *and* removals, thanks to the source counts beside
    /// the groups — are patched into a copy that forks only the shards they
    /// land in ([`InternedAccessIndex::patch`]: `#shards` pointer copies
    /// plus one shard per tuple, never `O(|R|)`), and the successor's index
    /// is complete when this returns, like [`IndexedDatabase::build`]'s.
    /// Only unknown (wholesale-replacement) changes, or a delta that turns
    /// out not to describe the index it is applied to
    /// ([`DataError::IndexDeltaMismatch`]: it removes a projection the index
    /// does not hold), rebuild that relation's index — so index and
    /// relation cannot disagree.
    ///
    /// Nothing else is derived here.  What a relation version owns travels
    /// with it: an untouched relation is the same version in `db`, its keyed
    /// indexes ([`Relation::keyed_index`]) included; a touched relation's
    /// successor already carries its keyed indexes, patched by the writes
    /// themselves.
    pub fn apply_delta(&self, db: Database, delta: &DeltaLog) -> Result<Self> {
        crate::faults::check(crate::faults::sites::INDEX_BUILD)?;
        let indexes = (self.access.constraints().zip(&self.indexes))
            .map(|(c, old)| {
                let name = c.relation();
                if !delta.touches(name) {
                    return Ok(Arc::clone(old));
                }
                let patched = match delta.exact(name) {
                    Some(d) => patched(old, c, db.expect_relation(name)?.schema(), d),
                    None => build_index(c, &db),
                };
                match patched {
                    Err(DataError::IndexDeltaMismatch(_)) => build_index(c, &db),
                    other => other,
                }
                .map(Arc::new)
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(IndexedDatabase {
            db,
            access: self.access.clone(),
            indexes,
        })
    }

    /// True when the `idx`-th constraint's index is the same shared object
    /// as `other`'s (no rebuild or patch happened between the two versions).
    pub fn shares_index(&self, other: &IndexedDatabase, idx: usize) -> bool {
        match (self.indexes.get(idx), other.indexes.get(idx)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
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

    /// The `Value` form of [`IndexedDatabase::fetch_ids`], for callers
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

    /// Execute a `fetch(X ∈ S, R, Y)` for a single interned `X`-value
    /// through the index of the constraint at `constraint_idx`: the
    /// matching `X ∪ Y` rows as a flat slice of `n · arity` ids, recording
    /// `n` fetched tuples in `stats`.
    pub fn fetch_ids(
        &self,
        constraint_idx: usize,
        key: &[ValueId],
        stats: &mut FetchStats,
    ) -> Result<(&[ValueId], usize)> {
        let index = self.index(constraint_idx)?;
        let rows = index.probe(key);
        stats.record_fetch(rows.len() / index.arity());
        Ok((rows, index.arity()))
    }

    /// The vectorised form of [`IndexedDatabase::fetch_ids`]: probe the
    /// constraint index with a whole batch of interned keys and append every
    /// matching row to `out`, with per-key `FetchStats` accounting identical
    /// to `n_keys` scalar fetches.  Returns `(rows_appended, arity)`.
    pub fn fetch_ids_batch(
        &self,
        constraint_idx: usize,
        keys_flat: &[ValueId],
        n_keys: usize,
        out: &mut Vec<ValueId>,
        stats: &mut FetchStats,
    ) -> Result<(usize, usize)> {
        let index = self.index(constraint_idx)?;
        let appended = index.probe_batch(keys_flat, n_keys, out, stats);
        Ok((appended, index.arity()))
    }

    /// Whether the wrapped instance satisfies the access schema.
    pub fn satisfies_access_schema(&self) -> Result<bool> {
        self.access.satisfied_by(&self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::RelationChange;
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
        assert!(idb.satisfies_access_schema().unwrap());
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
        let (rows, arity) = idb.fetch_ids(0, &id_key, &mut id_stats).unwrap();
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
        let (rows, _) = idb
            .fetch_ids(0, &intern_key(&ghost[..1]), &mut id_stats)
            .unwrap();
        assert!(rows.is_empty());
        assert_eq!(id_stats.fetch_calls, 2);
        assert_eq!(id_stats.fetched_tuples, 2);
        assert!(idb.fetch(0, &ghost, &mut stats).unwrap().is_empty());
        assert_eq!(ValueId::lookup(&ghost[1]), None, "fetch mints no id");
        assert_eq!((stats.fetch_calls, stats.fetched_tuples), (2, 2));

        let index = idb.index(0).unwrap();
        assert_eq!(index.distinct_keys(), 2);
        assert_eq!(index.probe_len(&id_key), 2);
        assert!(idb.index(9).is_err());
        assert!(matches!(
            idb.fetch_ids(9, &[], &mut id_stats),
            Err(DataError::NoIndexForConstraint(_))
        ));
    }

    #[test]
    fn batch_probe_matches_scalar_probes_to_the_tuple() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db, access).unwrap();
        let keys: Vec<Vec<ValueId>> = [
            [Value::str("Universal"), Value::str("2014")],
            [Value::str("MGM"), Value::str("1950")],
            [Value::str("WB"), Value::str("2013")],
        ]
        .iter()
        .map(|k| intern_key(k))
        .collect();

        // Scalar reference: one fetch_ids per key, concatenated.
        let mut scalar_out = Vec::new();
        let mut scalar_stats = FetchStats::new();
        for key in &keys {
            let (rows, _) = idb.fetch_ids(0, key, &mut scalar_stats).unwrap();
            scalar_out.extend_from_slice(rows);
        }

        let flat: Vec<ValueId> = keys.iter().flatten().copied().collect();
        let mut batch_out = Vec::new();
        let mut batch_stats = FetchStats::new();
        let (appended, arity) = idb
            .fetch_ids_batch(0, &flat, keys.len(), &mut batch_out, &mut batch_stats)
            .unwrap();
        assert_eq!(arity, 3);
        assert_eq!(appended * arity, batch_out.len());
        assert_eq!(batch_out, scalar_out);
        assert_eq!(batch_stats, scalar_stats);
        assert_eq!(batch_stats.fetch_calls, 3, "absent keys still count");

        // Empty batch: no rows, no probes.
        let mut empty_stats = FetchStats::new();
        let (none, _) = idb
            .fetch_ids_batch(0, &[], 0, &mut Vec::new(), &mut empty_stats)
            .unwrap();
        assert_eq!(none, 0);
        assert_eq!(empty_stats, FetchStats::new());
        assert!(idb
            .fetch_ids_batch(9, &[], 0, &mut Vec::new(), &mut empty_stats)
            .is_err());
    }

    #[test]
    fn batch_probe_with_empty_key_arity() {
        let schema = DatabaseSchema::with_relations(&[("r01", &["a"])]).unwrap();
        let mut db = Database::empty(schema);
        db.insert("r01", tuple![0]).unwrap();
        db.insert("r01", tuple![1]).unwrap();
        let access = AccessSchema::new(vec![AccessConstraint::new("r01", &[], &["a"], 2).unwrap()]);
        let idb = IndexedDatabase::build(db, access).unwrap();
        let mut out = Vec::new();
        let mut stats = FetchStats::new();
        let (rows, arity) = idb
            .fetch_ids_batch(0, &[], 1, &mut out, &mut stats)
            .unwrap();
        assert_eq!((rows, arity), (2, 1));
        assert_eq!(stats.fetch_calls, 1);
        assert_eq!(stats.fetched_tuples, 2);
        let index = idb.index(0).unwrap();
        assert_eq!(index.total_rows(), 2);
        assert_eq!(index.avg_group_len(), 2);
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
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();

        // Insert-only delta on `rating`: its index is patched, movie's is
        // the identical shared object.
        let mut next = db.clone();
        next.begin_delta_tracking();
        next.insert("rating", tuple![4, 2]).unwrap();
        let log = next.take_delta(&db);
        let patched = idb.apply_delta(next.clone(), &log).unwrap();
        assert!(patched.shares_index(&idb, 0), "movie untouched");
        assert!(!patched.shares_index(&idb, 1), "rating patched");
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
        assert!(after.shares_index(&patched, 0));
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
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
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
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
        let mut next = db.clone();
        next.begin_delta_tracking();
        next.remove("rating", &tuple![2, 3]).unwrap();
        next.remove("rating", &tuple![3, 5]).unwrap();
        next.insert("rating", tuple![7, 1]).unwrap();
        let log = next.take_delta(&db);
        assert!(log.exact("rating").is_some(), "tracked mutation is exact");
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
            let (mut ia, mut ib) = (FetchStats::new(), FetchStats::new());
            assert_eq!(
                patched.fetch_ids(1, &id_key, &mut ia).unwrap(),
                rebuilt.fetch_ids(1, &id_key, &mut ib).unwrap()
            );
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn writes_carry_keyed_indexes() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
        // Someone (view maintenance, say) probes `rating` by rank; nobody
        // touches `movie`.
        let by_rank = db.relation("rating").unwrap().keyed_index(&[1]);
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
        assert_eq!(*carried, InternedAccessIndex::keyed(rating, &[1]));
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
        assert!(Arc::ptr_eq(&rating2.keyed_index(&[1]), &carried));
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
        let by_id_type = like.keyed_index(&[1, 2]);
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
        assert!(Arc::ptr_eq(&by_id_type, &like.clone().keyed_index(&[1, 2])));
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
            assert_eq!(*carried, InternedAccessIndex::keyed(&next, &[1, 2]), "{t}");
            assert!(carried.shared_shards(&before) >= carried.shard_count() - 1);
        }
        assert_eq!(
            *by_id_type,
            InternedAccessIndex::keyed(like, &[1, 2]),
            "frozen"
        );
    }

    #[test]
    fn a_delta_the_index_never_saw_is_a_typed_error_and_rebuilds() {
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db.clone(), access.clone()).unwrap();
        let (index, constraint) = (idb.index(1).unwrap(), access.constraint(1).unwrap());
        let rating = db.relation("rating").unwrap().schema();
        let mut bogus = RelationDelta::default();
        bogus.removed.insert(tuple![42, 1]); // never in `rating`
        assert_eq!(
            patched(index, constraint, rating, &bogus).unwrap_err(),
            DataError::IndexDeltaMismatch("rating".into())
        );
        // Same key as a live tuple, different projection: also caught.
        let mut bogus = RelationDelta::default();
        bogus.removed.insert(tuple![1, 4]);
        assert!(patched(index, constraint, rating, &bogus).is_err());
        // `apply_delta` falls back to rebuilding that one index from the
        // relation it is handed, so index and relation cannot disagree.
        let mut log = DeltaLog::new();
        log.record("rating", RelationChange::Delta(bogus));
        let rebuilt = idb.apply_delta(db.clone(), &log).unwrap();
        assert!(rebuilt.shares_index(&idb, 0), "movie untouched");
        assert!(!rebuilt.shares_index(&idb, 1));
        let mut stats = FetchStats::new();
        assert_eq!(
            rebuilt.fetch(1, &[Value::int(1)], &mut stats).unwrap(),
            [tuple![1, 5]]
        );
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
