//! Prepared plan execution: a process-wide pipeline cache and the
//! prepared-statement handle built on it.
//!
//! PR 3 compiles every plan into a flat [`Pipeline`], but a serving workload
//! re-executes the *same few plan shapes* against a *slowly changing*
//! instance — the paper's bounded-rewriting shape (decide once, construct
//! the topped plan once, answer many queries that differ in a constant).
//! In the paper a plan `ξ` is built from `(Q, V, A, M)` alone and the data
//! enters only when it is evaluated, as the cached `V(D)` and the fetched
//! `D_ξ`; the compiled form keeps to that, so compiling is done once per
//! shape and never again:
//!
//! * [`PipelineCache`] — a bounded, thread-safe map from
//!   [`PlanFingerprint`] to compiled pipeline shapes, with LRU eviction and
//!   observable hit / miss / eviction counters.  The fingerprint is of the
//!   plan's **shape** — its structure, view names and access constraints
//!   with the constants left out (see [`crate::fingerprint`] for why that
//!   is sound with no further argument) — and it is the whole key.  There
//!   is no data half because a compiled shape holds no data: constants,
//!   view extents and constraint indexes are slots an execution fills
//!   (`crate::exec`), so one entry serves every plan of the shape, every
//!   data version (any number of them side by side), every access schema
//!   that lists the plan's constraints, in whatever order, and every
//!   [`ExecOptions`].  Nothing a write publishes can make an entry stale,
//!   so nothing is ever invalidated;
//! * [`PreparedShape`] — everything a plan needs to execute except its
//!   constants: the shape fingerprint, the cache, and a template plan to
//!   compile from.  It executes with any binding of its constant slots,
//!   which is how an ad-hoc query of a known shape runs without a plan tree
//!   of its own;
//! * [`PreparedPlan`] — the handle for one closed plan: a shared
//!   [`PreparedShape`] plus that plan's constants, interned once at
//!   construction.  An [`execute`](PreparedPlan::execute) looks the shape
//!   up and binds the environment it was handed; what a hit skips is the
//!   walk over the plan tree that numbers slots, picks join strategies and
//!   lays out the operators.
//!
//! Correctness contract, held by `tests/prepared_cache.rs`: a cached
//! execution is **bit-identical** — answer tuples *and* [`FetchStats`] — to
//! compiling a fresh [`Pipeline`] at that moment.  This falls out of the
//! design: compilation is a pure function of the plan's shape, every
//! execution resolves the extents and indexes it reads from the `views` and
//! `idb` it names (a session pinned to an old version reads the old extent),
//! constants enter only as the ids bound at execution (the shared value
//! interner is append-only, so ids never change meaning), and
//! execution-time statistics are recorded per run, never baked into the
//! pipeline.
//!
//! [`FetchStats`]: bqr_data::FetchStats

use crate::exec::{intern_constants, CompiledShape, ExecOptions, ExecOutput, Pipeline};
use crate::fingerprint::{fingerprint, PlanFingerprint};
use crate::node::QueryPlan;
use crate::Result;
use bqr_data::{IndexedDatabase, MaterializedViews, Value, ValueId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

struct Entry {
    shape: Arc<CompiledShape>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<PlanFingerprint, Entry>,
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
    /// Always 0: a compiled shape holds no data, so no write invalidates
    /// one.  The field outlives the epoch-keyed cache it counted for only
    /// because `benchmark/` reads it and may not change in the PR that
    /// removed the sweep; the next `[benchmark]` PR drops both.
    pub invalidations: u64,
    /// Entries dropped by LRU pressure at capacity.
    pub evictions: u64,
}

/// A bounded, thread-safe cache of compiled pipeline shapes keyed by shape
/// fingerprint.
///
/// One cache instance can safely serve any number of [`PreparedPlan`]s and
/// threads; [`PipelineCache::global`] is the process-wide default.
/// Compilation happens **outside** the cache lock: a thread re-using a hot
/// entry never waits behind another thread's compile, and two threads racing
/// to compile the same key both succeed — the loser's pipeline is dropped in
/// favour of the registered one.
pub struct PipelineCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    lookups: AtomicU64,
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
/// process (hundreds of distinct statement shapes).  What it bounds is that
/// many operator vectors — an entry pins no extent and no index.
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
            invalidations: 0,
            evictions: self.evictions.load(Ordering::SeqCst),
        }
    }

    /// Drop every entry (counters are retained).
    pub fn clear(&self) {
        self.lock_inner().entries.clear();
    }

    /// The cached shape for `key`, or `compile` it and register it.
    fn get_or_compile(
        &self,
        key: PlanFingerprint,
        compile: impl FnOnce() -> CompiledShape,
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
        let shape = Arc::new(compile());
        let mut inner = self.lock_inner();
        // Failpoint inside the critical section: a Panic kind injected here
        // poisons this lock, which `lock_inner` must then recover from; an
        // Error kind verifies a failed registration is never cached.
        bqr_data::faults::check(bqr_data::faults::sites::CACHE_INSERT)?;
        if let Some(existing) = inner.entries.get(&key) {
            // Lost a benign compile race; share the registered shape.
            return Ok(Arc::clone(&existing.shape));
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
                .map(|(k, _)| *k)
            else {
                break;
            };
            inner.entries.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::SeqCst);
        }
        Ok(shape)
    }
}

/// A prepared plan *shape*: fingerprinted once, compiled once per lifetime
/// of its cache entry — and executable with any constants bound to its
/// slots, against any data version.  Every [`PreparedPlan`] is one of these
/// plus a binding; plans (and ad-hoc queries) that differ only in constants
/// share one `Arc<PreparedShape>`, or at least one cache entry.
#[derive(Debug)]
pub struct PreparedShape {
    /// A plan of this shape, the one compilation reads (shared with the
    /// [`PreparedPlan`] it was first prepared as).  Compilation does not look
    /// at its constants.
    template: Arc<QueryPlan>,
    fingerprint: PlanFingerprint,
    cache: Arc<PipelineCache>,
}

impl PreparedShape {
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

    /// The compiled shape: from the cache, or compiled from the template
    /// and registered when this is the shape's first use (or its entry was
    /// evicted).
    fn compiled(&self) -> Result<Arc<CompiledShape>> {
        self.cache
            .get_or_compile(self.fingerprint, || CompiledShape::compile(&self.template))
    }

    /// Execute the shape with `constants` in its slots (one interned id per
    /// slot, in [`crate::PlanNode::constant_slots`] order) under an
    /// externally constructed [`Guard`](crate::guard::Guard): looks the
    /// compiled shape up, binds the extents of `views` and the indexes of
    /// `idb`, and runs — bit-identical (tuples and stats) to compiling and
    /// executing the closed plan those constants make.  Another number of
    /// `constants` than the shape has slots is a
    /// [`PlanError::ArityMismatch`](crate::PlanError::ArityMismatch).
    pub fn execute_guarded(
        &self,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        guard: &crate::guard::Guard,
        constants: &[ValueId],
    ) -> Result<ExecOutput> {
        let shape = self.compiled()?;
        let extents = shape.bind_extents(views)?;
        shape.execute_guarded(idb, guard, constants, &extents)
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
/// prepared.execute(&idb2, &views2)?;               // hit: run on the new data
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
            shape: Arc::new(PreparedShape {
                fingerprint: fingerprint(&plan),
                template: Arc::clone(&plan),
                cache,
            }),
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

    /// The fingerprint of the plan's shape (the pipeline-cache key).
    pub fn fingerprint(&self) -> PlanFingerprint {
        self.shape.fingerprint
    }

    /// The cache this handle compiles into.
    pub fn cache(&self) -> &PipelineCache {
        &self.shape.cache
    }

    /// The pipeline this plan executes as against `idb` and `views`: the
    /// shape's compiled operators (from the cache) with this plan's
    /// constants and the extents of `views` bound.  Exposed for
    /// introspection ([`Pipeline::describe`]); the execution path does the
    /// same without the handle.  `_options` is unused — options never reach
    /// a compiled shape — and is kept only because `benchmark/` passes it
    /// and may not change in the PR that took options out of the cache key;
    /// the next `[benchmark]` PR drops it.
    pub fn pipeline(
        &self,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        _options: &ExecOptions,
    ) -> Result<Pipeline> {
        let constants = Arc::clone(&self.constants);
        Pipeline::bind(self.shape.compiled()?, constants, idb, views)
    }

    /// Execute with no limits (the prepared counterpart of
    /// [`crate::execute`]).
    pub fn execute(&self, idb: &IndexedDatabase, views: &MaterializedViews) -> Result<ExecOutput> {
        self.execute_with(idb, views, &ExecOptions::default())
    }

    /// Execute under explicit [`ExecOptions`] (the prepared counterpart of
    /// [`crate::execute_with`]): looks the compiled shape up, binds `views`
    /// and `idb`, and runs the pipeline; output is bit-identical (tuples and
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
    /// [`GuardMetrics`](crate::guard::GuardMetrics) across executions.  The
    /// guard carries the limits, so `_options` is unused; it is kept only
    /// because `benchmark/` passes it, and the next `[benchmark]` PR drops it.
    pub fn execute_guarded(
        &self,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        _options: &ExecOptions,
        guard: &crate::guard::Guard,
    ) -> Result<ExecOutput> {
        self.shape
            .execute_guarded(idb, views, guard, &self.constants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Plan;
    use crate::error::PlanError;
    use bqr_data::{
        tuple, AccessConstraint, Database, DatabaseSchema, Relation, RelationSchema, Tuple, Value,
    };

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
        // S(x, y) :- s(x, y).
        let mut cache = MaterializedViews::empty();
        cache.insert("S", extent(&db, "S", &["c0", "c1"], |t| t));
        let idb =
            IndexedDatabase::build(db, bqr_data::AccessSchema::new(vec![constraint()])).unwrap();
        (idb, cache)
    }

    /// The extent of a view `name(attrs)` over `s`: each `s`-tuple through
    /// `row`.
    fn extent(db: &Database, name: &str, attrs: &[&str], row: fn(Tuple) -> Tuple) -> Relation {
        let rows = db.relation("s").unwrap().iter().map(|t| row(t.to_tuple()));
        Relation::from_tuples(RelationSchema::new(name, attrs).unwrap(), rows).unwrap()
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

    /// A new data version is not a new key: the shape compiled for the old
    /// one executes against the new one, and answers as a fresh compile
    /// there would.
    #[test]
    fn a_new_version_is_a_hit_and_answers_like_a_fresh_compile() {
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
            crate::execute(prepared.plan(), &idb2, &views2).unwrap()
        );
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1), "{stats:?}");
        assert_eq!(cache.len(), 1);

        // The old instance still executes correctly, through the same entry.
        assert_eq!(prepared.execute(&idb, &views).unwrap(), before);
        assert_eq!(cache.stats().misses, 1);
    }

    /// Two *coexisting* instance versions served from one cache share its
    /// one entry: executed alternately, each gets its own version's answer
    /// and neither ever costs the other a compile.
    #[test]
    fn coexisting_versions_stay_warm() {
        let cache = Arc::new(PipelineCache::new(8));
        let prepared = PreparedPlan::with_cache(plan(), Arc::clone(&cache));
        let (idb1, views1) = instance(-1);
        let (idb2, views2) = instance(7);
        let a = crate::execute(prepared.plan(), &idb1, &views1).unwrap();
        let b = crate::execute(prepared.plan(), &idb2, &views2).unwrap();
        assert_ne!(a.tuples, b.tuples, "the versions differ");
        for _ in 0..3 {
            assert_eq!(prepared.execute(&idb1, &views1).unwrap(), a);
            assert_eq!(prepared.execute(&idb2, &views2).unwrap(), b);
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 5), "{stats:?}");
        assert_eq!(cache.len(), 1);
    }

    /// Two access schemas listing the same constraints in a different order
    /// are the same environment to a compiled shape, which finds its
    /// constraints by content on every execution.
    #[test]
    fn schemas_in_any_order_share_one_entry() {
        let other = AccessConstraint::new("s", &["b"], &["c"], 4).unwrap();
        let build = |constraints: Vec<AccessConstraint>| {
            let (idb, views) = instance(-1);
            let access = bqr_data::AccessSchema::new(constraints);
            let idb = IndexedDatabase::build(idb.database().clone(), access).unwrap();
            (idb, views)
        };
        let (idb1, views1) = build(vec![constraint(), other.clone()]);
        let (idb2, views2) = build(vec![other.clone(), constraint()]);
        let cache = Arc::new(PipelineCache::new(8));
        let through_both = Plan::constant(vec![Value::int(0)])
            .fetch(constraint(), vec![0])
            .fetch(other, vec![1])
            .build()
            .unwrap();
        for plan in [plan(), through_both] {
            let prepared = PreparedPlan::with_cache(plan, Arc::clone(&cache));
            let reference = crate::exec::reference::execute(prepared.plan(), &idb1, &views1);
            let reference = reference.unwrap();
            assert!(!reference.tuples.is_empty());
            for _ in 0..2 {
                assert_eq!(prepared.execute(&idb1, &views1).unwrap(), reference);
                assert_eq!(prepared.execute(&idb2, &views2).unwrap(), reference);
            }
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, cache.len()), (2, 2), "{stats:?}");
    }

    #[test]
    fn option_sets_share_one_entry() {
        let cache = Arc::new(PipelineCache::new(8));
        let prepared = PreparedPlan::with_cache(plan(), Arc::clone(&cache));
        let (idb, views) = instance(-1);
        let unlimited = prepared
            .execute_with(&idb, &views, &ExecOptions::default())
            .unwrap();
        let limited = ExecOptions::default()
            .with_deadline_ms(60_000)
            .with_row_budget(1 << 20);
        let limited = prepared.execute_with(&idb, &views, &limited).unwrap();
        assert_eq!(unlimited, limited, "options never change the output");
        assert_eq!(cache.stats().misses, 1, "options are not in the key");
        assert_eq!(cache.len(), 1);
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

    /// What a plan names is resolved by every execution, so a cached shape
    /// never answers for an environment that lacks it — the error is the
    /// unprepared compile's, the second time as the first — and the same
    /// handle starts answering once it is executed where the names resolve.
    #[test]
    fn unresolvable_names_error_like_an_unprepared_compile() {
        let cache = Arc::new(PipelineCache::new(8));
        let (idb, views) = instance(-1);
        let foreign = AccessConstraint::new("s", &["b"], &["c"], 4).unwrap();
        let cases = [
            Plan::view("NoSuchView", 2).build().unwrap(),
            Plan::view("S", 3).build().unwrap(),
            Plan::constant(vec![Value::int(1)])
                .fetch(foreign.clone(), vec![0])
                .build()
                .unwrap(),
        ];
        // An environment in which all three resolve: a binary `NoSuchView`,
        // a ternary `S`, and `foreign` in the access schema.
        // NoSuchView(x, y) :- s(x, y) and S(x, y, y) :- s(x, y).
        let mut views2 = MaterializedViews::empty();
        let db = idb.database();
        views2.insert("NoSuchView", extent(db, "NoSuchView", &["c0", "c1"], |t| t));
        let diagonal = |t: Tuple| Tuple::new(vec![t[0].clone(), t[1].clone(), t[1].clone()]);
        views2.insert("S", extent(db, "S", &["c0", "c1", "c2"], diagonal));
        let access = bqr_data::AccessSchema::new(vec![foreign, constraint()]);
        let idb2 = IndexedDatabase::build(idb.database().clone(), access).unwrap();
        for (i, plan) in cases.into_iter().enumerate() {
            let prepared = PreparedPlan::with_cache(plan, Arc::clone(&cache));
            let unprepared = crate::execute(prepared.plan(), &idb, &views).unwrap_err();
            assert!(
                matches!(
                    (i, &unprepared),
                    (0, PlanError::UnknownView(_))
                        | (1, PlanError::ArityMismatch { left: 3, right: 2 })
                        | (2, PlanError::ConstraintNotInSchema(_))
                ),
                "case {i}: {unprepared}"
            );
            for _ in 0..2 {
                let e = prepared.execute(&idb, &views).unwrap_err();
                assert_eq!(e.to_string(), unprepared.to_string(), "case {i}");
                let e = prepared.pipeline(&idb, &views, &ExecOptions::default());
                assert_eq!(e.unwrap_err().to_string(), unprepared.to_string());
            }
            let fresh = crate::execute(prepared.plan(), &idb2, &views2).unwrap();
            assert!(!fresh.tuples.is_empty(), "case {i}");
            assert_eq!(prepared.execute(&idb2, &views2).unwrap(), fresh, "case {i}");
            assert!(prepared.execute(&idb, &views).is_err(), "still absent here");
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, cache.len()), (3, 3), "one compile per shape");
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
