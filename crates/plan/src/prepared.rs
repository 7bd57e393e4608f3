//! Prepared plan execution: a process-wide pipeline cache and the
//! prepared-statement handle built on it.
//!
//! PR 3 compiles every plan into a flat [`Pipeline`], but a serving workload
//! re-executes the *same few plan shapes* against a *slowly changing*
//! instance — the paper's bounded-rewriting shape (decide once, construct
//! the topped plan once, answer many queries that differ in a constant).
//! Recompiling per execution re-does view resolution and snapshot interning
//! on every call.  This module amortises it:
//!
//! * [`PipelineCache`] — a bounded, thread-safe map from
//!   `(`[`PlanFingerprint`]`, `[`ExecOptions`]`, `[`EpochVector`]`)` to
//!   compiled pipeline shapes, with LRU eviction and observable hit / miss /
//!   invalidation / eviction counters.  The fingerprint is of the plan's
//!   **shape** — its structure with the constants left out (see
//!   [`crate::fingerprint`] for why that is sound with no further argument)
//!   — so every plan of a shape, whatever its constants, shares one entry;
//! * [`EpochVector`] — the data half of the key: the epochs of the base
//!   relations reachable through the plan's fetch constraints plus the
//!   epochs of the view extents the plan reads, together with a digest of
//!   the access schema (constraint *positions* are resolved at compile time,
//!   so a pipeline may only be re-used under a content-identical schema);
//! * [`PreparedShape`] — everything a plan needs to execute except its
//!   constants: the shape fingerprint, the names whose epochs gate re-use,
//!   the cache, and a template plan to compile from.  It executes with any
//!   binding of its constant slots, which is how an ad-hoc query of a known
//!   shape runs without a plan tree of its own;
//! * [`PreparedPlan`] — the handle for one closed plan: a shared
//!   [`PreparedShape`] plus that plan's constants, interned once at
//!   construction.  It re-validates the epoch vector on every
//!   [`execute`](PreparedPlan::execute) and recompiles **only** when the key
//!   misses (a mutated relation or view presents fresh epochs; the stale
//!   entry is swept and counted as an invalidation on the next insert).
//!
//! Correctness contract, held by `tests/prepared_cache.rs`: a cached
//! execution is **bit-identical** — answer tuples *and* [`FetchStats`] — to
//! compiling a fresh [`Pipeline`] at that moment.  This falls out of the
//! design: epochs are globally unique stamps (equal epochs ⟹ equal
//! contents), compilation is a pure function of `(plan shape, schema
//! contents, extent contents)`, constants enter only as the ids bound at
//! execution (the shared value interner is append-only, so ids never change
//! meaning), and execution-time statistics are recorded per run, never baked
//! into the pipeline.
//!
//! [`FetchStats`]: bqr_data::FetchStats

use crate::exec::{intern_constants, CompiledShape, ExecOptions, ExecOutput, Pipeline};
use crate::fingerprint::{fingerprint, PlanFingerprint};
use crate::node::{PlanNode, QueryPlan};
use crate::Result;
use bqr_data::{AccessSchema, IndexedDatabase, Value, ValueId};
use bqr_query::MaterializedViews;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The data half of a pipeline-cache key: every epoch the compiled pipeline
/// depends on, plus a digest of the access schema it resolved constraint
/// positions against.
///
/// Built by [`EpochVector::capture`] in `O(#relations + #views)` — this is
/// the whole point: re-validating a prepared plan costs a handful of map
/// lookups, never `O(|D|)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EpochVector {
    /// Digest of the access schema's constraint list (order and content).
    access: u64,
    /// Epochs of the plan's fetched base relations (sorted by name) followed
    /// by the epochs of its view extents (sorted by name).
    epochs: Vec<u64>,
}

impl EpochVector {
    /// Capture the current epochs of `base_relations` (out of `idb`) and
    /// `view_names` (out of `views`).  Returns `None` when a name cannot be
    /// resolved — compilation would fail for such a plan, and the caller
    /// should let [`Pipeline::compile`] surface that error uncached.
    pub fn capture(
        base_relations: &[String],
        view_names: &[String],
        idb: &IndexedDatabase,
        views: &MaterializedViews,
    ) -> Option<EpochVector> {
        let mut epochs = Vec::with_capacity(base_relations.len() + view_names.len());
        for name in base_relations {
            epochs.push(idb.database().relation(name)?.epoch());
        }
        for name in view_names {
            epochs.push(views.extent(name)?.epoch());
        }
        Some(EpochVector {
            access: access_schema_digest(idb.access_schema()),
            epochs,
        })
    }

    /// True when `self` strictly supersedes `older`: same access schema and
    /// shape, every epoch at least as new, and at least one strictly newer.
    /// Epochs are issued from one global monotone counter, so "newer stamp"
    /// means "later data version".  The invalidation sweep removes only
    /// superseded entries: an update invalidates its predecessor, while two
    /// *coexisting* instance versions (blue/green, or a retained old
    /// snapshot) keep their entries and stay warm side by side.
    fn supersedes(&self, older: &EpochVector) -> bool {
        self.access == older.access
            && self.epochs.len() == older.epochs.len()
            && self != older
            && self
                .epochs
                .iter()
                .zip(&older.epochs)
                .all(|(new, old)| new >= old)
    }
}

/// A content digest of an access schema's constraint list.  Pipelines store
/// constraint *positions*; two schemas with equal digests resolve every
/// constraint to the same position, so their pipelines are interchangeable.
/// (Process-local: the digest uses the std hasher and is not persisted.)
fn access_schema_digest(access: &AccessSchema) -> u64 {
    let mut h = DefaultHasher::new();
    for c in access.constraints() {
        c.relation().hash(&mut h);
        c.x().hash(&mut h);
        c.y().hash(&mut h);
        c.n().hash(&mut h);
    }
    h.finish()
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    fingerprint: PlanFingerprint,
    options: ExecOptions,
    epochs: EpochVector,
}

struct Entry {
    shape: Arc<CompiledShape>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// A point-in-time snapshot of a cache's counters.
///
/// `lookups == hits + misses` always (the three are updated under one lock);
/// the concurrency stress test in `tests/prepared_cache.rs` asserts exactly
/// that reconciliation under contention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a compile.
    pub misses: u64,
    /// Total lookups (`hits + misses`).
    pub lookups: u64,
    /// Entries dropped because a fresh epoch vector superseded them (the
    /// same plan, any options, strictly older epochs — see
    /// `EpochVector::supersedes`).
    pub invalidations: u64,
    /// Entries dropped by LRU pressure at capacity.
    pub evictions: u64,
}

/// A bounded, thread-safe cache of compiled pipeline shapes keyed by
/// `(shape fingerprint, options, epoch vector)`.
///
/// One cache instance can safely serve any number of [`PreparedPlan`]s and
/// threads; [`PipelineCache::global`] is the process-wide default.
/// Compilation happens **outside** the cache lock (the same discipline as
/// the snapshot registry in `bqr-data`): a thread re-using a hot entry never
/// waits behind another thread's compile, and two threads racing to compile
/// the same key both succeed — the loser's pipeline is dropped in favour of
/// the registered one.
pub struct PipelineCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    lookups: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PipelineCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Default capacity of [`PipelineCache::global`]: generous for a serving
/// process (hundreds of distinct prepared statements), small enough that the
/// pinned view snapshots stay bounded.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

static GLOBAL: OnceLock<Arc<PipelineCache>> = OnceLock::new();

impl PipelineCache {
    /// A cache holding at most `capacity` compiled pipelines (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        PipelineCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The process-wide cache ([`DEFAULT_CACHE_CAPACITY`] entries), shared by
    /// every [`PreparedPlan::new`] handle.
    pub fn global() -> &'static Arc<PipelineCache> {
        GLOBAL.get_or_init(|| Arc::new(PipelineCache::new(DEFAULT_CACHE_CAPACITY)))
    }

    /// Maximum number of cached pipelines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cache's map lock, recovering from poison: the map is consistent
    /// at every point a panic can escape a holder (all mutations complete
    /// before any call that could unwind), so a poisoned lock only means
    /// *some* thread panicked — the data is fine and serving must continue.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Number of cached pipelines.
    pub fn len(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current counter values.  All counter writes happen under the cache's
    /// map lock; taking it here makes the snapshot consistent — in
    /// particular `lookups == hits + misses` holds in every snapshot, even
    /// one taken concurrently with a lookup in flight on another thread.
    pub fn stats(&self) -> CacheStats {
        let _consistent = self.lock_inner();
        CacheStats {
            hits: self.hits.load(Ordering::SeqCst),
            misses: self.misses.load(Ordering::SeqCst),
            lookups: self.lookups.load(Ordering::SeqCst),
            invalidations: self.invalidations.load(Ordering::SeqCst),
            evictions: self.evictions.load(Ordering::SeqCst),
        }
    }

    /// Drop every entry (counters are retained).
    pub fn clear(&self) {
        self.lock_inner().entries.clear();
    }

    /// The cached shape for `key`, or `compile` it, register it, and sweep
    /// entries the fresh epochs invalidate.  Errors are never cached.
    fn get_or_compile(
        &self,
        key: CacheKey,
        compile: impl FnOnce() -> Result<CompiledShape>,
    ) -> Result<Arc<CompiledShape>> {
        {
            let mut inner = self.lock_inner();
            inner.tick += 1;
            let tick = inner.tick;
            self.lookups.fetch_add(1, Ordering::SeqCst);
            if let Some(entry) = inner.entries.get_mut(&key) {
                self.hits.fetch_add(1, Ordering::SeqCst);
                entry.last_used = tick;
                return Ok(Arc::clone(&entry.shape));
            }
            self.misses.fetch_add(1, Ordering::SeqCst);
        }
        // Compile unlocked — see the type-level docs.
        let shape = Arc::new(compile()?);
        let mut inner = self.lock_inner();
        // Failpoint inside the critical section: a Panic kind injected here
        // poisons this lock, which `lock_inner` must then recover from; an
        // Error kind verifies a failed registration is never cached.
        bqr_data::faults::check(bqr_data::faults::sites::CACHE_INSERT)?;
        if let Some(existing) = inner.entries.get(&key) {
            // Lost a benign compile race; share the registered shape.
            return Ok(Arc::clone(&existing.shape));
        }
        // Sweep entries this insert supersedes: same shape (any options —
        // options never change what a pipeline computes), strictly older
        // epochs.  That is the cache-level face of epoch invalidation.
        // Entries for a *coexisting* newer-or-incomparable version are kept,
        // so serving two live instance versions from one cache stays warm
        // on both sides instead of thrashing.
        let before = inner.entries.len();
        inner
            .entries
            .retain(|k, _| !(k.fingerprint == key.fingerprint && key.epochs.supersedes(&k.epochs)));
        let swept = (before - inner.entries.len()) as u64;
        if swept > 0 {
            self.invalidations.fetch_add(swept, Ordering::SeqCst);
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.entries.insert(
            key,
            Entry {
                shape: Arc::clone(&shape),
                last_used: tick,
            },
        );
        // LRU eviction at capacity.
        while inner.entries.len() > self.capacity {
            let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
        Ok(shape)
    }
}

/// A prepared plan *shape*: fingerprinted once, compiled on demand,
/// re-validated by epoch on every execution — and executable with any
/// constants bound to its slots.  Every [`PreparedPlan`] is one of these plus
/// a binding; plans (and ad-hoc queries) that differ only in constants share
/// one `Arc<PreparedShape>`, or at least one cache entry.
#[derive(Debug)]
pub struct PreparedShape {
    /// A plan of this shape, the one compilation reads (shared with the
    /// [`PreparedPlan`] it was first prepared as).  Compilation does not look
    /// at its constants.
    template: Arc<QueryPlan>,
    fingerprint: PlanFingerprint,
    /// Base relations reachable through the plan's fetch constraints
    /// (sorted, deduplicated) — the relations whose epochs gate re-use.
    base_relations: Vec<String>,
    /// Views the plan reads (sorted).
    views: Vec<String>,
    cache: Arc<PipelineCache>,
}

impl PreparedShape {
    /// Prepare the shape of `template` against `cache`.
    fn new(template: Arc<QueryPlan>, cache: Arc<PipelineCache>) -> Self {
        let mut base_relations: Vec<String> = template
            .fetches()
            .iter()
            .filter_map(|n| match n {
                PlanNode::Fetch { constraint, .. } => Some(constraint.relation().to_string()),
                _ => None,
            })
            .collect();
        base_relations.sort_unstable();
        base_relations.dedup();
        let mut views = template.view_names();
        views.sort_unstable();
        PreparedShape {
            fingerprint: fingerprint(&template),
            template,
            base_relations,
            views,
            cache,
        }
    }

    /// The closed plan with `constant(k, template's)` in slot `k`, as a
    /// handle on this shape: no fingerprinting, and the plan has the shape
    /// by construction.
    pub fn bind(self: &Arc<Self>, constant: impl FnMut(usize, &Value) -> Value) -> PreparedPlan {
        let plan = self.template.map_constants(constant);
        PreparedPlan {
            constants: intern_constants(&plan),
            plan: Arc::new(plan),
            shape: Arc::clone(self),
        }
    }

    /// The compiled shape to execute with right now — from the cache when
    /// the epoch vector still matches, freshly compiled (and registered)
    /// otherwise.
    fn compiled(
        &self,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        options: &ExecOptions,
    ) -> Result<Arc<CompiledShape>> {
        match EpochVector::capture(&self.base_relations, &self.views, idb, views) {
            Some(epochs) => self.cache.get_or_compile(
                CacheKey {
                    fingerprint: self.fingerprint,
                    // Guard limits are runtime-only: strip them so the same
                    // plan under different deadlines shares one pipeline.
                    options: options.cache_key(),
                    epochs,
                },
                || CompiledShape::compile(&self.template, idb, views),
            ),
            // An unresolvable view or relation: compile uncached so the
            // error surfaces exactly as it would without preparation.
            None => CompiledShape::compile(&self.template, idb, views).map(Arc::new),
        }
    }

    /// Execute the shape with `constants` in its slots (one interned id per
    /// slot, in [`PlanNode::constant_slots`] order) under an externally
    /// constructed [`Guard`](crate::guard::Guard): re-validates the epoch
    /// vector, compiles on miss, and runs — bit-identical (tuples and stats)
    /// to compiling and executing the closed plan those constants make.
    pub fn execute_guarded(
        &self,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        options: &ExecOptions,
        guard: &crate::guard::Guard,
        constants: &[ValueId],
    ) -> Result<ExecOutput> {
        self.compiled(idb, views, options)?
            .execute_guarded(idb, options, guard, constants)
    }
}

/// A prepared plan: a shared [`PreparedShape`] plus this plan's constants,
/// interned once here and bound on every execution.
///
/// ```text
/// let prepared = PreparedPlan::new(plan);          // fingerprint once
/// prepared.execute(&idb, &views)?;                 // miss: compile + run
/// prepared.execute(&idb, &views)?;                 // hit: run only
/// PreparedPlan::new(same_plan_other_constants)     // same shape:
///     .execute(&idb, &views)?;                     // hit: run only
/// /* mutate a relation the plan reads … rebuild idb/views … */
/// prepared.execute(&idb2, &views2)?;               // fresh epochs: recompile
/// ```
///
/// The handle is immutable and `Sync`; cloning it copies three pointers, and
/// all compiled state lives in the (shared) [`PipelineCache`].
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    shape: Arc<PreparedShape>,
    plan: Arc<QueryPlan>,
    constants: Arc<[ValueId]>,
}

impl PreparedPlan {
    /// Prepare `plan` against the [global](PipelineCache::global) cache.
    pub fn new(plan: QueryPlan) -> Self {
        PreparedPlan::with_cache(plan, Arc::clone(PipelineCache::global()))
    }

    /// Prepare `plan` against a caller-owned cache (isolated counters; used
    /// by the tests and by embedders that want per-tenant budgets).
    pub fn with_cache(plan: QueryPlan, cache: Arc<PipelineCache>) -> Self {
        let plan = Arc::new(plan);
        PreparedPlan {
            constants: intern_constants(&plan),
            shape: Arc::new(PreparedShape::new(Arc::clone(&plan), cache)),
            plan,
        }
    }

    /// The prepared plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The shape this plan executes through.
    pub fn shape(&self) -> &Arc<PreparedShape> {
        &self.shape
    }

    /// The fingerprint of the plan's shape (the plan half of the
    /// pipeline-cache key).
    pub fn fingerprint(&self) -> PlanFingerprint {
        self.shape.fingerprint
    }

    /// The cache this handle compiles into.
    pub fn cache(&self) -> &PipelineCache {
        &self.shape.cache
    }

    /// The pipeline this plan would execute with right now: the shape's
    /// compiled operators — from the cache when the epoch vector still
    /// matches, freshly compiled (and registered) otherwise — with this
    /// plan's constants bound.  Exposed for introspection
    /// ([`Pipeline::describe`]); the execution path does the same without
    /// the handle.
    pub fn pipeline(
        &self,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        options: &ExecOptions,
    ) -> Result<Pipeline> {
        Ok(Pipeline {
            shape: self.shape.compiled(idb, views, options)?,
            consts: Arc::clone(&self.constants),
        })
    }

    /// Execute serially (the prepared counterpart of [`crate::execute`]).
    pub fn execute(&self, idb: &IndexedDatabase, views: &MaterializedViews) -> Result<ExecOutput> {
        self.execute_with(idb, views, &ExecOptions::serial())
    }

    /// Execute under explicit [`ExecOptions`] (the prepared counterpart of
    /// [`crate::execute_with`]).  Re-validates the epoch vector, compiles on
    /// miss, and runs the pipeline; output is bit-identical (tuples and
    /// stats) to a fresh compile-and-execute.
    pub fn execute_with(
        &self,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        options: &ExecOptions,
    ) -> Result<ExecOutput> {
        let guard = crate::guard::Guard::new(&options.limits);
        self.execute_guarded(idb, views, options, &guard)
    }

    /// [`PreparedPlan::execute_with`] under an externally constructed
    /// [`Guard`](crate::guard::Guard) — the entry point for callers that
    /// share a cancellation token or engine-lifetime
    /// [`GuardMetrics`](crate::guard::GuardMetrics) across executions.
    pub fn execute_guarded(
        &self,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        options: &ExecOptions,
        guard: &crate::guard::Guard,
    ) -> Result<ExecOutput> {
        self.shape
            .execute_guarded(idb, views, options, guard, &self.constants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Plan;
    use crate::error::PlanError;
    use bqr_data::{tuple, AccessConstraint, Database, DatabaseSchema, Value};
    use bqr_query::parser::parse_cq;
    use bqr_query::ViewSet;

    fn schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[("r", &["a", "b"]), ("s", &["b", "c"])]).unwrap()
    }

    fn constraint() -> AccessConstraint {
        AccessConstraint::new("r", &["a"], &["b"], 8).unwrap()
    }

    fn instance(extra: i64) -> (IndexedDatabase, MaterializedViews) {
        let mut db = Database::empty(schema());
        for i in 0..6i64 {
            db.insert("r", tuple![i % 3, i]).unwrap();
            db.insert("s", tuple![i, 10 + i]).unwrap();
        }
        if extra >= 0 {
            // A fresh r-tuple whose b-value joins with s (b ∈ 0..6), so the
            // mutation is visible in the answer, not just in the epochs.
            db.insert("r", tuple![0, 4 + extra % 2]).unwrap();
        }
        let mut views = ViewSet::empty();
        views
            .add_cq("S", parse_cq("S(x, y) :- s(x, y)").unwrap())
            .unwrap();
        let cache = views.materialize(&db).unwrap();
        let idb =
            IndexedDatabase::build(db, bqr_data::AccessSchema::new(vec![constraint()])).unwrap();
        (idb, cache)
    }

    fn plan() -> QueryPlan {
        Plan::constant(vec![Value::int(0)])
            .fetch(constraint(), vec![0])
            .join_eq(Plan::view("S", 2), &[(1, 0)])
            .project(vec![1, 3])
            .build()
            .unwrap()
    }

    #[test]
    fn warm_execution_skips_recompilation() {
        let cache = Arc::new(PipelineCache::new(8));
        let prepared = PreparedPlan::with_cache(plan(), Arc::clone(&cache));
        let (idb, views) = instance(-1);
        let fresh = crate::execute(&prepared.plan().clone(), &idb, &views).unwrap();
        let first = prepared.execute(&idb, &views).unwrap();
        let second = prepared.execute(&idb, &views).unwrap();
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 1, "{stats:?}");
        assert_eq!(stats.lookups, 2, "{stats:?}");
        assert_eq!(cache.len(), 1);
        // A structurally equal but separately constructed handle shares the
        // cached pipeline (fingerprints, not identities).
        let twin = PreparedPlan::with_cache(plan(), Arc::clone(&cache));
        assert_eq!(twin.fingerprint(), prepared.fingerprint());
        assert_eq!(twin.execute(&idb, &views).unwrap(), fresh);
        assert_eq!(cache.stats().hits, 2);
    }

    /// Plans that differ only in their constants are one shape: one cache
    /// entry, one compile — and each still answers for its own constants,
    /// whether prepared on its own or bound onto the other's shape.
    #[test]
    fn plans_differing_in_constants_share_one_pipeline() {
        let cache = Arc::new(PipelineCache::new(8));
        let (idb, views) = instance(-1);
        let with_key = |k: i64| {
            Plan::constant(vec![Value::int(k)])
                .fetch(constraint(), vec![0])
                .join_eq(Plan::view("S", 2), &[(1, 0)])
                .select_eq_const(3, 10 + k)
                .project(vec![1, 3])
                .build()
                .unwrap()
        };
        let zero = PreparedPlan::with_cache(with_key(0), Arc::clone(&cache));
        let mut answers = Vec::new();
        for k in 0..3i64 {
            let plan = with_key(k);
            let fresh = crate::execute(&plan, &idb, &views).unwrap();
            let own = PreparedPlan::with_cache(plan.clone(), Arc::clone(&cache));
            assert_eq!(own.fingerprint(), zero.fingerprint());
            assert_eq!(own.execute(&idb, &views).unwrap(), fresh, "key {k}");
            // Pre-order: the σ above the join comes before the leaf under it.
            let slots = [Value::int(10 + k), Value::int(k)];
            assert_eq!(plan.constant_slots(), slots.iter().collect::<Vec<_>>());
            let bound = zero.shape().bind(|slot, _| slots[slot].clone());
            assert_eq!(bound.plan(), &plan);
            assert_eq!(bound.execute(&idb, &views).unwrap(), fresh, "key {k}");
            answers.push(fresh.tuples);
        }
        assert_ne!(answers[0], answers[1], "the constants matter");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 5), "{stats:?}");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn epoch_change_recompiles_and_invalidates() {
        let cache = Arc::new(PipelineCache::new(8));
        let prepared = PreparedPlan::with_cache(plan(), Arc::clone(&cache));
        let (idb, views) = instance(-1);
        let before = prepared.execute(&idb, &views).unwrap();

        // A mutated base relation: fresh epochs, fresh answer.
        let (idb2, views2) = instance(7);
        let after = prepared.execute(&idb2, &views2).unwrap();
        assert_ne!(before.tuples, after.tuples, "the extra tuple must show");
        assert_eq!(
            after,
            crate::execute(&prepared.plan().clone(), &idb2, &views2).unwrap()
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1, "the stale entry was swept");
        assert_eq!(cache.len(), 1);

        // The old instance still executes correctly (its entry was swept, so
        // this is a recompile — never a stale answer).
        assert_eq!(prepared.execute(&idb, &views).unwrap(), before);
    }

    /// Two *coexisting* instance versions served from one cache: the newer
    /// version's insert sweeps its predecessor once (that is the update
    /// semantics), but re-preparing the older version does not sweep the
    /// newer one — after one recompile each, both stay resident and warm,
    /// with no thrashing.
    #[test]
    fn coexisting_versions_stay_warm() {
        let cache = Arc::new(PipelineCache::new(8));
        let prepared = PreparedPlan::with_cache(plan(), Arc::clone(&cache));
        let (idb1, views1) = instance(-1);
        let (idb2, views2) = instance(7); // built later: strictly newer epochs
        let a = prepared.execute(&idb1, &views1).unwrap();
        let b = prepared.execute(&idb2, &views2).unwrap();
        assert_eq!(cache.stats().invalidations, 1, "v2 superseded v1");
        // v1 is still being served elsewhere: one recompile brings it back,
        // and it must NOT sweep v2 (older epochs never supersede newer).
        assert_eq!(prepared.execute(&idb1, &views1).unwrap(), a);
        let misses = cache.stats().misses;
        assert_eq!(misses, 3);
        for _ in 0..3 {
            assert_eq!(prepared.execute(&idb1, &views1).unwrap(), a);
            assert_eq!(prepared.execute(&idb2, &views2).unwrap(), b);
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, misses, "both versions warm, no thrash");
        assert_eq!(stats.invalidations, 1, "no further sweeps");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn options_are_part_of_the_key() {
        let cache = Arc::new(PipelineCache::new(8));
        let prepared = PreparedPlan::with_cache(plan(), Arc::clone(&cache));
        let (idb, views) = instance(-1);
        let serial = prepared
            .execute_with(&idb, &views, &ExecOptions::serial())
            .unwrap();
        let parallel = prepared
            .execute_with(&idb, &views, &ExecOptions::parallel(4))
            .unwrap();
        assert_eq!(serial, parallel, "options never change the output");
        assert_eq!(cache.stats().misses, 2, "distinct keys per options");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let cache = Arc::new(PipelineCache::new(2));
        let (idb, views) = instance(-1);
        // Three shapes (constants would share one entry): σ on column 0,
        // on column 1, and on both.
        let plans: Vec<PreparedPlan> = [vec![0], vec![1], vec![0, 1]]
            .into_iter()
            .map(|cols| {
                let conds = cols
                    .into_iter()
                    .map(|c| crate::SelectCondition::ColEqConst(c, Value::int(1)))
                    .collect();
                PreparedPlan::with_cache(
                    Plan::view("S", 2).select(conds).build().unwrap(),
                    Arc::clone(&cache),
                )
            })
            .collect();
        for p in &plans {
            p.execute(&idb, &views).unwrap();
        }
        assert_eq!(cache.len(), 2, "capacity bound holds");
        assert_eq!(cache.stats().evictions, 1);
        // The evicted (least recently used) entry was plan 0: executing it
        // again misses; plan 2 still hits.
        let misses = cache.stats().misses;
        plans[2].execute(&idb, &views).unwrap();
        assert_eq!(cache.stats().misses, misses, "plan 2 was resident");
        plans[0].execute(&idb, &views).unwrap();
        assert_eq!(cache.stats().misses, misses + 1, "plan 0 was evicted");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 2);
    }

    #[test]
    fn unresolvable_names_error_like_an_unprepared_compile() {
        let cache = Arc::new(PipelineCache::new(8));
        let (idb, views) = instance(-1);
        let ghost = PreparedPlan::with_cache(
            Plan::view("NoSuchView", 1).build().unwrap(),
            Arc::clone(&cache),
        );
        assert!(matches!(
            ghost.execute(&idb, &views),
            Err(PlanError::UnknownView(_))
        ));
        assert!(cache.is_empty(), "errors are never cached");
        let foreign = AccessConstraint::new("s", &["b"], &["c"], 4).unwrap();
        let bad = PreparedPlan::with_cache(
            Plan::constant(vec![Value::int(1)])
                .fetch(foreign, vec![0])
                .build()
                .unwrap(),
            Arc::clone(&cache),
        );
        assert!(matches!(
            bad.execute(&idb, &views),
            Err(PlanError::ConstraintNotInSchema(_))
        ));
        assert!(cache.is_empty());
    }

    #[test]
    fn global_cache_is_shared() {
        let a = PreparedPlan::new(plan());
        let b = PreparedPlan::new(plan());
        assert!(Arc::ptr_eq(&a.shape.cache, &b.shape.cache));
        let (idb, views) = instance(-1);
        let hits = a.cache().stats().hits;
        a.execute(&idb, &views).unwrap();
        b.execute(&idb, &views).unwrap();
        assert!(b.cache().stats().hits > hits, "handles share entries");
    }
}
