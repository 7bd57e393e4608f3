//! Constraint-backed indices and the `fetch` primitive.
//!
//! Each access constraint `R(X → Y, N)` comes with an index that, given an
//! `X`-value `ā`, returns `D_{R:XY}(X = ā)` — the `X∪Y` projections of the
//! tuples of `R` matching `ā` — in time `O(N)`.  [`AccessIndex`] is a hash
//! index realising exactly that contract, and [`IndexedDatabase`] bundles a
//! [`Database`] with one index per constraint of an [`AccessSchema`], which is
//! what bounded query plans execute against.

use crate::access::{AccessConstraint, AccessSchema};
use crate::database::Database;
use crate::delta::{DeltaLog, RelationDelta};
use crate::error::DataError;
use crate::intern::ValueId;
use crate::relation::Relation;
use crate::stats::FetchStats;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Fan-out of the sharded group maps: every index holds this many shards,
/// however small the relation, so a key's shard never moves between
/// versions.
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

/// How many same-position shards of two sharded maps are the same allocation.
fn count_shared<T>(a: &[Arc<T>], b: &[Arc<T>]) -> usize {
    a.iter().zip(b).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
}

/// One shard of an [`AccessIndex`]: `X`-key → group.  Groups sit behind
/// their own `Arc` so forking a shard copies pointers, not groups.
type GroupShard = HashMap<Vec<Value>, Arc<Group>>;

/// A hash index on `X` for `X ∪ Y`, backing one access constraint.
#[derive(Debug, Clone)]
pub struct AccessIndex {
    constraint: AccessConstraint,
    /// Attribute names of the tuples returned by [`AccessIndex::probe`]
    /// (the constraint's `X ∪ Y`, in that order).
    xy_attributes: Vec<String>,
    /// The group map, cut into [`SHARDS`] copy-on-write shards by the hash
    /// of the `X`-key: [`AccessIndex::with_delta`] copies the shard
    /// *pointers* and forks only the shards (and, inside them, the groups)
    /// the delta lands in.
    shards: Vec<Arc<GroupShard>>,
    /// Number of distinct `X`-values across all shards.
    keys: usize,
    /// The id-native sibling, built lazily on first interned probe — or, for
    /// a version made by [`AccessIndex::with_delta`] from a predecessor that
    /// had one, patched from the predecessor's.  The index is immutable
    /// after construction, so the sibling can never go stale.
    interned: OnceLock<InternedAccessIndex>,
}

/// One key's group: the deduplicated `X ∪ Y` projections in sorted order,
/// plus a source multiplicity per projection.  The multiplicities are what
/// make removals patchable: several source tuples can project to the same
/// group entry, so a removed tuple decrements its entry's count and the
/// entry only leaves the group when the count reaches zero — no rebuild
/// needed to decide whether another source tuple still supports it.  The
/// sorted order is what makes a patched group *bit-identical* to a rebuilt
/// one: it depends on the group's contents only, not on the order the
/// writes arrived in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Group {
    rows: Vec<Tuple>,
    /// `sources[i]` = number of source tuples projecting to `rows[i]`.
    sources: Vec<u32>,
}

impl Group {
    /// Record one more source tuple projecting to `row`.
    fn add_source(&mut self, row: Tuple) {
        match self.rows.binary_search(&row) {
            Ok(i) => self.sources[i] += 1,
            Err(i) => {
                self.rows.insert(i, row);
                self.sources.insert(i, 1);
            }
        }
    }

    /// Drop one source tuple projecting to `row`; `false` when the group
    /// holds no such projection (the delta does not describe this index).
    fn remove_source(&mut self, row: &Tuple) -> bool {
        let Ok(i) = self.rows.binary_search(row) else {
            return false;
        };
        self.sources[i] -= 1;
        if self.sources[i] == 0 {
            self.rows.remove(i);
            self.sources.remove(i);
        }
        true
    }
}

/// One shard of an [`InternedAccessIndex`]: interned key → the group's
/// rows, flat and row-major.
type IdShard = HashMap<Vec<ValueId>, Box<[ValueId]>>;

/// An id-native hash index: probing with an interned key returns the whole
/// group under it as a flat row-major id slice.  Two things are indexed
/// this way, by the same structure:
///
/// * an [`AccessIndex`]'s groups ([`AccessIndex::interned`]): the key is the
///   constraint's `X`, a group is `D_{R:XY}(X = ā)`.  This is the index the
///   compiled plan executor fetches through — the hot loop never touches a
///   [`Value`], yet every probe still accounts `|D_ξ|` tuple by tuple (the
///   group's row count) exactly like the `Value`-keyed path;
/// * a relation's tuples on arbitrary key positions
///   ([`Relation::keyed_index`]): a group is the set of whole tuples
///   agreeing with the key, in ascending id order — a canonical order, so a
///   patched index equals a rebuilt one.  This is what view maintenance
///   probes.  Tuples of a relation are a set, so — unlike the `X ∪ Y`
///   projections of the first kind — they need no source multiplicities to
///   be removable.
///
/// Sharded by the hash of the interned key, so a successor version shares
/// every shard its delta did not touch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternedAccessIndex {
    /// Ids per row — always ≥ 1 (constraints require a non-empty `Y`, keyed
    /// indexes a non-empty key).
    arity: usize,
    shards: Vec<Arc<IdShard>>,
    /// Number of distinct keys, and of indexed tuples, across all shards —
    /// maintained as counters so patching never has to re-count.
    keys: usize,
    rows: usize,
}

pub(crate) fn intern_key(key: &[Value]) -> Vec<ValueId> {
    key.iter().map(ValueId::intern).collect()
}

/// A group's rows, interned, flat and row-major.
fn intern_rows(group: &Group, arity: usize) -> Box<[ValueId]> {
    let mut ids = Vec::with_capacity(group.rows.len() * arity);
    ids.extend(group.rows.iter().flatten().map(ValueId::intern));
    ids.into()
}

impl InternedAccessIndex {
    fn build(index: &AccessIndex) -> Self {
        let arity = index.xy_attributes.len();
        let per_shard = index.keys / SHARDS;
        let mut shards: Vec<IdShard> = (0..SHARDS)
            .map(|_| IdShard::with_capacity(per_shard))
            .collect();
        let mut rows = 0;
        for (key, group) in index.shards.iter().flat_map(|s| s.iter()) {
            let key = intern_key(key);
            rows += group.rows.len();
            shards[shard_of(&key)].insert(key, intern_rows(group, arity));
        }
        InternedAccessIndex {
            arity,
            shards: shards.into_iter().map(Arc::new).collect(),
            keys: index.keys,
            rows,
        }
    }

    /// Index the tuples of `relation` on `key_positions`, interning every
    /// value ([`Relation::keyed_index`]).
    pub(crate) fn keyed(relation: &Relation, key_positions: &[usize]) -> Self {
        let mut groups: HashMap<Vec<ValueId>, Vec<Vec<ValueId>>> = HashMap::new();
        for tuple in relation.iter() {
            let row = intern_key(tuple.values());
            let key = key_positions.iter().map(|&p| row[p]).collect();
            groups.entry(key).or_default().push(row);
        }
        let mut index = InternedAccessIndex {
            arity: relation.schema().arity(),
            shards: vec![Arc::default(); SHARDS],
            keys: 0,
            rows: 0,
        };
        for (key, mut rows) in groups {
            // Tuples arrived in value order; groups are kept in id order.
            rows.sort_unstable();
            index.replace_group(key, Some(rows.concat().into()));
        }
        index
    }

    /// Replace (or, with `None`, drop) the group under `key`, forking the
    /// one shard it lives in if that shard is still shared.
    fn replace_group(&mut self, key: Vec<ValueId>, group: Option<Box<[ValueId]>>) {
        let shard = Arc::make_mut(&mut self.shards[shard_of(&key)]);
        let new_rows = group.as_ref().map(|rows| rows.len() / self.arity);
        let old = match group {
            Some(rows) => shard.insert(key, rows),
            None => shard.remove(&key),
        };
        let old_rows = old.as_ref().map(|rows| rows.len() / self.arity);
        self.rows = self.rows + new_rows.unwrap_or(0) - old_rows.unwrap_or(0);
        self.keys = self.keys + usize::from(new_rows.is_some()) - usize::from(old_rows.is_some());
    }

    /// Replace (or, with `None`, drop) the group under `key` with the
    /// interned rows of `group`.
    fn set_group(&mut self, key: &[Value], group: Option<&Arc<Group>>) {
        let rows = group.map(|group| intern_rows(group, self.arity));
        self.replace_group(intern_key(key), rows);
    }

    /// Make `row` present in — or absent from — the group under `key` of a
    /// keyed index, keeping the group in id order; the key leaves with its
    /// last row.  A row already as asked changes nothing.  Forks one shard;
    /// `O(|group|)`.
    pub(crate) fn set_row(&mut self, key: &[ValueId], row: &[ValueId], present: bool) {
        let group = self.probe(key);
        let rows: Vec<&[ValueId]> = group.chunks_exact(self.arity).collect();
        let rows = match (rows.binary_search(&row), present) {
            (Err(at), true) => [&rows[..at], &[row], &rows[at..]].concat(),
            (Ok(at), false) => [&rows[..at], &rows[at + 1..]].concat(),
            _ => return,
        };
        let group = (!rows.is_empty()).then(|| rows.concat().into());
        self.replace_group(key.to_vec(), group);
    }

    /// Arity of the returned rows (`|X ∪ Y|`, or the relation's arity).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Retrieve the group under `key` as a flat id slice of `n · arity()`
    /// ids (`n` tuples; for a constraint's index in the same deterministic
    /// group order as [`AccessIndex::probe`]).  Empty for absent keys.
    pub fn probe(&self, key: &[ValueId]) -> &[ValueId] {
        match self.shards[shard_of(key)].get(key) {
            Some(rows) => rows,
            None => &[],
        }
    }

    /// Number of tuples a probe result holds.
    pub fn probe_len(&self, key: &[ValueId]) -> usize {
        self.probe(key).len() / self.arity
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

    /// How many shards are the same allocation as `other`'s shard in the
    /// same position (out of [`InternedAccessIndex::shard_count`]): what a
    /// patched version still shares with its predecessor.
    pub fn shared_shards(&self, other: &InternedAccessIndex) -> usize {
        count_shared(&self.shards, &other.shards)
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

impl AccessIndex {
    /// Build the index for `constraint` over the current contents of `db`.
    pub fn build(constraint: &AccessConstraint, db: &Database) -> Result<Self> {
        let rel = db.expect_relation(constraint.relation())?;
        let mut index = AccessIndex {
            constraint: constraint.clone(),
            xy_attributes: constraint.xy(),
            shards: vec![Arc::default(); SHARDS],
            keys: 0,
            interned: OnceLock::new(),
        };
        let (x_pos, xy_pos) = index.positions(rel)?;
        for t in rel.iter() {
            // Deduplicate: the index returns the *set* D_{R:XY}(X = ā), but
            // the per-projection source count is kept so removals can patch.
            index.add_source(t.project(&x_pos).into_values(), t.project(&xy_pos));
        }
        Ok(index)
    }

    /// Positions of `X` and of `X ∪ Y` in `rel`'s schema.
    fn positions(&self, rel: &Relation) -> Result<(Vec<usize>, Vec<usize>)> {
        let xy: Vec<&str> = self.xy_attributes.iter().map(String::as_str).collect();
        Ok((
            rel.schema().positions(self.constraint.x())?,
            rel.schema().positions(&xy)?,
        ))
    }

    /// Count one more source tuple projecting to `row` under `key`, forking
    /// the shard and the group it lands in if they are still shared.
    fn add_source(&mut self, key: Vec<Value>, row: Tuple) {
        let shard = Arc::make_mut(&mut self.shards[shard_of(&key)]);
        let group = match shard.entry(key) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                self.keys += 1;
                e.insert(Arc::default())
            }
        };
        Arc::make_mut(group).add_source(row);
    }

    /// The id-native form of the index, built (and its values interned) on
    /// first use and cached for the lifetime of the index.
    pub fn interned(&self) -> &InternedAccessIndex {
        self.interned
            .get_or_init(|| InternedAccessIndex::build(self))
    }

    /// The constraint this index backs.
    pub fn constraint(&self) -> &AccessConstraint {
        &self.constraint
    }

    /// Attribute names of the returned tuples (`X ∪ Y`).
    pub fn xy_attributes(&self) -> &[String] {
        &self.xy_attributes
    }

    /// Number of distinct `X`-values indexed.
    pub fn distinct_keys(&self) -> usize {
        self.keys
    }

    fn group(&self, key: &[Value]) -> Option<&Arc<Group>> {
        self.shards[shard_of(key)].get(key)
    }

    /// Retrieve `D_{R:XY}(X = ā)`, in sorted order.  Returns an empty slice
    /// for `X`-values not present in the data.
    pub fn probe(&self, key: &[Value]) -> &[Tuple] {
        self.group(key).map(|g| g.rows.as_slice()).unwrap_or(&[])
    }

    /// The number of source tuples supporting the group entry `row` under
    /// `key` (zero when absent) — exposes the multiplicity bookkeeping that
    /// makes removals patchable, for the differential tests.
    pub fn source_multiplicity(&self, key: &[Value], row: &Tuple) -> u32 {
        self.group(key)
            .and_then(|g| g.rows.binary_search(row).ok().map(|i| g.sources[i]))
            .unwrap_or(0)
    }

    /// The largest group size in the index — useful for verifying that the
    /// cardinality bound holds on the indexed data.
    pub fn max_group_size(&self) -> usize {
        let groups = self.shards.iter().flat_map(|s| s.values());
        groups.map(|g| g.rows.len()).max().unwrap_or(0)
    }

    /// How many shards are the same allocation as `other`'s shard in the
    /// same position (out of [`AccessIndex::shard_count`]): what a patched
    /// version still shares with its predecessor.
    pub fn shared_shards(&self, other: &AccessIndex) -> usize {
        count_shared(&self.shards, &other.shards)
    }

    /// The fixed number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The id-native sibling if it exists already, without building it.
    pub fn interned_if_built(&self) -> Option<&InternedAccessIndex> {
        self.interned.get()
    }

    /// A copy of this index with an exact write delta patched into the
    /// groups.  Cost: `#shards` pointer copies, one forked shard (a copy of
    /// its `|groups| / #shards` entries, keys and group pointers) per shard
    /// the delta lands in, and `O(log N)` work in each forked group — so
    /// `O(#shards + |Δ| · (|groups| / #shards + N))`, against the `O(|R|)`
    /// of a full rebuild.  Removals are as cheap as inserts: the
    /// per-projection source multiplicities decide whether a removed
    /// tuple's projection is still supported by another source tuple.
    ///
    /// When this index's id-native sibling has been built, the successor's
    /// is patched from it the same way — only the touched groups are
    /// re-interned (`O(|Δ| · N · arity)` values), every other shard is
    /// carried over by pointer — so the first probe of the new version finds
    /// it ready.  When it has not, the successor's stays lazy too.
    ///
    /// Fails with [`DataError::IndexDeltaMismatch`] when the delta removes a
    /// tuple this index never saw: the delta does not describe the step
    /// from this index's contents, and patching on would yield an index
    /// that disagrees with its relation.  Callers rebuild instead.
    pub fn with_delta(&self, delta: &RelationDelta, rel: &Relation) -> Result<Self> {
        let (x_pos, xy_pos) = self.positions(rel)?;
        let mut next = AccessIndex {
            constraint: self.constraint.clone(),
            xy_attributes: self.xy_attributes.clone(),
            shards: self.shards.clone(),
            keys: self.keys,
            interned: OnceLock::new(),
        };
        let mut touched: BTreeSet<Vec<Value>> = BTreeSet::new();
        // The net delta's inserted/removed sets are disjoint, so the order
        // of application is immaterial; either way, only the shards and
        // groups the delta lands in are forked — everything else stays
        // shared with the predecessor index.
        for t in &delta.removed {
            let key = t.project(&x_pos).into_values();
            let shard = Arc::make_mut(&mut next.shards[shard_of(&key)]);
            let removed = shard
                .get_mut(&key)
                .is_some_and(|g| Arc::make_mut(g).remove_source(&t.project(&xy_pos)));
            if !removed {
                return Err(DataError::IndexDeltaMismatch(rel.name().to_string()));
            }
            if shard[&key].rows.is_empty() {
                // Keys with no surviving projection leave the map entirely,
                // keeping distinct-key statistics identical to a rebuild.
                shard.remove(&key);
                next.keys -= 1;
            }
            touched.insert(key);
        }
        for t in &delta.inserted {
            let key = t.project(&x_pos).into_values();
            touched.insert(key.clone());
            next.add_source(key, t.project(&xy_pos));
        }
        if let Some(prev) = self.interned.get() {
            let mut interned = prev.clone();
            for key in &touched {
                interned.set_group(key, next.group(key));
            }
            next.interned = OnceLock::from(interned);
        }
        Ok(next)
    }
}

/// A database together with the indices of an access schema.  This is the
/// runtime object bounded query plans execute against: views are cached
/// separately (see `bqr-plan`), and base data is reachable *only* through
/// [`IndexedDatabase::fetch`].
#[derive(Debug, Clone)]
pub struct IndexedDatabase {
    db: Database,
    access: AccessSchema,
    /// One index per constraint, in the order of `access.constraints()`.
    /// Behind `Arc` so successive versions share the indexes of untouched
    /// relations — including their lazily interned id-native siblings.
    indexes: Vec<Arc<AccessIndex>>,
}

impl IndexedDatabase {
    /// Build all indices for `access` over `db`.
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
            .map(|c| AccessIndex::build(c, &db).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        Ok(IndexedDatabase {
            db,
            access,
            indexes,
        })
    }

    /// Re-index `db` (the successor of this instance's database) from a
    /// write delta, touching only the indexes of changed relations:
    /// untouched constraints share this instance's [`AccessIndex`] (and its
    /// interned sibling) by `Arc`; exact deltas — inserts *and* removals,
    /// thanks to the per-projection source multiplicities — are patched
    /// shard by shard ([`AccessIndex::with_delta`]: `#shards` pointer copies
    /// plus the shards the delta lands in, never `O(|R|)`); only unknown
    /// (wholesale-replacement) changes, or a delta that turns out not to
    /// describe the index it is applied to, rebuild that relation's index.
    ///
    /// Nothing else is derived here.  What a relation version owns travels
    /// with it: an untouched relation is the same version in `db`, interned
    /// snapshot ([`crate::snapshot_of`]) and keyed indexes
    /// ([`Relation::keyed_index`]) included; a touched relation's successor
    /// already carries its keyed indexes, patched by the writes themselves,
    /// and has no snapshot until a scan of it asks for one — nothing on the
    /// write path reads snapshots, so nothing on it pays `O(|R|)` to keep
    /// one warm.
    pub fn apply_delta(&self, db: Database, delta: &DeltaLog) -> Result<Self> {
        crate::faults::check(crate::faults::sites::INDEX_BUILD)?;
        let indexes = self
            .access
            .constraints()
            .zip(&self.indexes)
            .map(|(c, old)| {
                let name = c.relation();
                if !delta.touches(name) {
                    return Ok(Arc::clone(old));
                }
                let patched = match delta.exact(name) {
                    Some(d) => old.with_delta(d, db.expect_relation(name)?),
                    None => AccessIndex::build(c, &db),
                };
                match patched {
                    Err(DataError::IndexDeltaMismatch(_)) => AccessIndex::build(c, &db),
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

    /// The index for the `idx`-th constraint of the access schema.
    pub fn index(&self, idx: usize) -> Option<&AccessIndex> {
        self.indexes.get(idx).map(Arc::as_ref)
    }

    /// Locate a constraint (by content) and return its position, if indexed.
    pub fn constraint_position(&self, constraint: &AccessConstraint) -> Option<usize> {
        self.access.constraints().position(|c| c == constraint)
    }

    /// Execute a `fetch(X ∈ S, R, Y)` for a single `X`-value through the index
    /// of the constraint at `constraint_idx`, recording the I/O in `stats`.
    pub fn fetch(
        &self,
        constraint_idx: usize,
        key: &[Value],
        stats: &mut FetchStats,
    ) -> Result<&[Tuple]> {
        let index = self.indexes.get(constraint_idx).ok_or_else(|| {
            DataError::NoIndexForConstraint(format!("constraint #{constraint_idx}"))
        })?;
        let tuples = index.probe(key);
        stats.record_fetch(tuples.len());
        Ok(tuples)
    }

    /// The id-native path of [`IndexedDatabase::fetch`]: probe the constraint
    /// index with an interned key and return the matching `X ∪ Y` rows as a
    /// flat slice of `n · arity` ids, recording `n` fetched tuples in
    /// `stats` — the same `|D_ξ|` accounting as the `Value`-keyed path,
    /// preserved to the tuple.
    pub fn fetch_ids(
        &self,
        constraint_idx: usize,
        key: &[ValueId],
        stats: &mut FetchStats,
    ) -> Result<(&[ValueId], usize)> {
        let index = self.interned_access_index(constraint_idx)?;
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
        let index = self.interned_access_index(constraint_idx)?;
        let appended = index.probe_batch(keys_flat, n_keys, out, stats);
        Ok((appended, index.arity()))
    }

    /// The id-native index of the `idx`-th constraint (built lazily; callers
    /// that record their own [`FetchStats`] — e.g. sharded probe loops —
    /// probe it directly).
    pub fn interned_access_index(&self, idx: usize) -> Result<&InternedAccessIndex> {
        self.indexes
            .get(idx)
            .map(|index| index.interned())
            .ok_or_else(|| DataError::NoIndexForConstraint(format!("constraint #{idx}")))
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

    #[test]
    fn index_groups_by_key() {
        let (db, access) = movie_db();
        let idx = AccessIndex::build(access.constraint(0).unwrap(), &db).unwrap();
        assert_eq!(idx.distinct_keys(), 2);
        assert_eq!(idx.max_group_size(), 2);
        assert_eq!(idx.xy_attributes(), &["studio", "release", "mid"]);
        let hits = idx.probe(&[Value::str("Universal"), Value::str("2014")]);
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&tuple!["Universal", "2014", 1]));
        assert!(hits.contains(&tuple!["Universal", "2014", 2]));
        assert!(idx
            .probe(&[Value::str("MGM"), Value::str("1999")])
            .is_empty());
    }

    #[test]
    fn index_deduplicates_projections() {
        let schema = DatabaseSchema::with_relations(&[("like", &["pid", "id", "type"])]).unwrap();
        let mut db = Database::empty(schema);
        db.insert("like", tuple![1, 10, "movie"]).unwrap();
        db.insert("like", tuple![1, 10, "page"]).unwrap();
        let c = AccessConstraint::new("like", &["pid"], &["id"], 5).unwrap();
        let idx = AccessIndex::build(&c, &db).unwrap();
        // Both tuples project to (pid=1, id=10); the set semantics of the
        // index must collapse them.
        assert_eq!(idx.probe(&[Value::int(1)]).len(), 1);
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
        let tuples: Vec<Tuple> = idb.fetch(0, &key, &mut stats).unwrap().to_vec();

        let id_key: Vec<ValueId> = key.iter().map(ValueId::intern).collect();
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

        // Absent keys fetch zero tuples but still count the probe.
        let ghost: Vec<ValueId> = [Value::str("MGM"), Value::str("1950")]
            .iter()
            .map(ValueId::intern)
            .collect();
        let (rows, _) = idb.fetch_ids(0, &ghost, &mut id_stats).unwrap();
        assert!(rows.is_empty());
        assert_eq!(id_stats.fetch_calls, 2);
        assert_eq!(id_stats.fetched_tuples, 2);

        let interned = idb.interned_access_index(0).unwrap();
        assert_eq!(interned.distinct_keys(), 2);
        assert_eq!(interned.probe_len(&id_key), 2);
        assert!(idb.interned_access_index(9).is_err());
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
        .map(|k| k.iter().map(ValueId::intern).collect())
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
        let interned = idb.interned_access_index(0).unwrap();
        assert_eq!(interned.total_rows(), 2);
        assert_eq!(interned.avg_group_len(), 2);
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
        assert!(idb.index(0).is_some());
        assert!(idb.index(5).is_none());
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
        for idx in 0..2 {
            let mut a = FetchStats::new();
            let mut b = FetchStats::new();
            for key in [vec![Value::int(4)], vec![Value::int(1)]] {
                if idx == 0 {
                    continue;
                }
                assert_eq!(
                    patched.fetch(idx, &key, &mut a).unwrap(),
                    rebuilt.fetch(idx, &key, &mut b).unwrap()
                );
            }
            assert_eq!(a, b);
        }

        // A delta with removals patches that index too (multiplicity
        // bookkeeping, no rebuild): the removed key's group disappears, the
        // untouched constraint still shares its index.
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
        // Patched-index statistics match a rebuild exactly.
        let rebuilt = IndexedDatabase::build(shrunk.clone(), idb.access_schema().clone()).unwrap();
        assert_eq!(
            after.index(1).unwrap().distinct_keys(),
            rebuilt.index(1).unwrap().distinct_keys()
        );
        assert_eq!(
            after.index(1).unwrap().max_group_size(),
            rebuilt.index(1).unwrap().max_group_size()
        );
    }

    #[test]
    fn removal_patch_respects_source_multiplicities() {
        // Two source tuples project to the same (pid, id) entry; removing
        // one must keep the entry alive, removing the second must drop it —
        // exactly what a rebuild over the shrunken relation would produce.
        let schema = DatabaseSchema::with_relations(&[("like", &["pid", "id", "type"])]).unwrap();
        let mut db = Database::empty(schema);
        db.insert("like", tuple![1, 10, "movie"]).unwrap();
        db.insert("like", tuple![1, 10, "page"]).unwrap();
        db.insert("like", tuple![1, 11, "movie"]).unwrap();
        let access = AccessSchema::new(vec![
            AccessConstraint::new("like", &["pid"], &["id"], 5).unwrap()
        ]);
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
        let key = [Value::int(1)];
        assert_eq!(
            idb.index(0)
                .unwrap()
                .source_multiplicity(&key, &tuple![1, 10]),
            2
        );

        // Drop the first supporting source: the entry survives.
        let mut v1 = db.clone();
        v1.begin_delta_tracking();
        v1.remove("like", &tuple![1, 10, "movie"]).unwrap();
        let log = v1.take_delta(&db);
        let idb1 = idb.apply_delta(v1.clone(), &log).unwrap();
        let rebuilt1 = IndexedDatabase::build(v1.clone(), idb.access_schema().clone()).unwrap();
        let (mut a, mut b) = (FetchStats::new(), FetchStats::new());
        assert_eq!(
            idb1.fetch(0, &key, &mut a).unwrap(),
            rebuilt1.fetch(0, &key, &mut b).unwrap()
        );
        assert_eq!(a, b);
        assert_eq!(
            idb1.index(0)
                .unwrap()
                .source_multiplicity(&key, &tuple![1, 10]),
            1
        );

        // Drop the last supporting source: the entry goes, bit-identically
        // to the rebuild.
        let mut v2 = v1.clone();
        v2.begin_delta_tracking();
        v2.remove("like", &tuple![1, 10, "page"]).unwrap();
        let log = v2.take_delta(&v1);
        let idb2 = idb1.apply_delta(v2.clone(), &log).unwrap();
        let rebuilt2 = IndexedDatabase::build(v2.clone(), idb.access_schema().clone()).unwrap();
        let (mut a, mut b) = (FetchStats::new(), FetchStats::new());
        assert_eq!(
            idb2.fetch(0, &key, &mut a).unwrap(),
            rebuilt2.fetch(0, &key, &mut b).unwrap()
        );
        assert_eq!(a, b);
        assert_eq!(idb2.fetch(0, &key, &mut a).unwrap(), &[tuple![1, 11]]);
        assert_eq!(
            idb2.index(0)
                .unwrap()
                .source_multiplicity(&key, &tuple![1, 10]),
            0
        );
    }

    #[test]
    fn removal_patch_drops_emptied_keys_like_a_rebuild() {
        // A mixed delta (remove the whole group of one key, insert a new
        // key) patched in one pass agrees with a rebuild on every probe,
        // every statistic, and the interned sibling's accounting.
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
        assert_eq!(
            patched.index(1).unwrap().distinct_keys(),
            rebuilt.index(1).unwrap().distinct_keys()
        );
        for mid in 1..=7 {
            let key = [Value::int(mid)];
            let (mut a, mut b) = (FetchStats::new(), FetchStats::new());
            assert_eq!(
                patched.fetch(1, &key, &mut a).unwrap(),
                rebuilt.fetch(1, &key, &mut b).unwrap()
            );
            assert_eq!(a, b);
            // The interned siblings agree too.
            let id_key = [ValueId::intern(&Value::int(mid))];
            let (mut ia, mut ib) = (FetchStats::new(), FetchStats::new());
            assert_eq!(
                patched.fetch_ids(1, &id_key, &mut ia).unwrap(),
                rebuilt.fetch_ids(1, &id_key, &mut ib).unwrap()
            );
            assert_eq!(ia, ib);
        }
    }

    #[test]
    fn writes_carry_keyed_indexes_and_leave_snapshots_cold() {
        use crate::snapshot::snapshot_of;
        let (db, access) = movie_db();
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
        // Someone (view maintenance, say) probes `rating` by rank and scans
        // it; nobody touches `movie`.
        let by_rank = db.relation("rating").unwrap().keyed_index(&[1]);
        let rating0 = snapshot_of(db.relation("rating").unwrap());
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
        // Its snapshot is not carried: nothing on the write path reads one.
        assert!(!rating.has_snapshot(), "built again when a scan asks");
        assert_eq!(snapshot_of(rating).len(), 3);
        assert_eq!(rating0.len(), 3, "the predecessor's is frozen");
        // The relation nobody indexed or snapshotted stays bare.
        assert!(!movie.has_snapshot() && movie.keyed_index_if_built(&[2]).is_none());

        // Untouched relations are the same version in the successor, so the
        // same snapshot and the same index serve both.
        let mut v2 = idb1.database().clone();
        v2.begin_delta_tracking();
        v2.insert("movie", tuple![5, "Tar", "Focus", "2022"])
            .unwrap();
        let log = v2.take_delta(idb1.database());
        let idb2 = idb1.apply_delta(v2, &log).unwrap();
        let rating2 = idb2.database().relation("rating").unwrap();
        assert!(Arc::ptr_eq(&snapshot_of(rating2), &snapshot_of(rating)));
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
        let idb = IndexedDatabase::build(db.clone(), access).unwrap();
        let mut bogus = RelationDelta::default();
        bogus.removed.insert(tuple![42, 1]); // never in `rating`
        let rating = db.relation("rating").unwrap();
        assert_eq!(
            idb.index(1)
                .unwrap()
                .with_delta(&bogus, rating)
                .unwrap_err(),
            DataError::IndexDeltaMismatch("rating".into())
        );
        // Same key as a live tuple, different projection: also caught.
        let mut bogus = RelationDelta::default();
        bogus.removed.insert(tuple![1, 4]);
        assert!(idb.index(1).unwrap().with_delta(&bogus, rating).is_err());
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
            &[tuple![1, 5]]
        );
    }

    #[test]
    fn empty_key_constraint_probe() {
        let schema = DatabaseSchema::with_relations(&[("r01", &["a"])]).unwrap();
        let mut db = Database::empty(schema);
        db.insert("r01", tuple![0]).unwrap();
        db.insert("r01", tuple![1]).unwrap();
        let c = AccessConstraint::new("r01", &[], &["a"], 2).unwrap();
        let idx = AccessIndex::build(&c, &db).unwrap();
        // With X = ∅ the single key is the empty tuple and probing it returns
        // the whole (bounded) relation.
        assert_eq!(idx.probe(&[]).len(), 2);
        assert_eq!(idx.distinct_keys(), 1);
    }
}
