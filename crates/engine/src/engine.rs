//! The [`Engine`]: configuration, data, and the request lifecycle.

use crate::analysis::Analysis;
use crate::error::{Error, Result};
use crate::session::{DataVersion, PreparedStatement, Session};
use crate::shape::{AnalysedShape, QueryShape};
use bqr_core::{
    decide_vbrp, BoundedOutputOracle, DecisionOutcome, Query, RewritingSetting, ToppedAnalysis,
    ToppedChecker, VbrpInstance,
};
use bqr_data::{AccessSchema, Database, DatabaseSchema, Relation, Value};
use bqr_plan::{
    panic_message, CacheStats, ExecOptions, GuardMetrics, GuardStats, PipelineCache, PlanLanguage,
    PreparedPlan,
};
use bqr_query::parser::parse_ucq;
use bqr_query::{Budget, ConjunctiveQuery, FoQuery, UnionQuery, ViewSet};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, PoisonError, RwLock};

/// Anything [`Engine::analyze`] / [`Engine::prepare`] accept as a query: the
/// AST types of the stack ([`ConjunctiveQuery`], [`UnionQuery`], [`FoQuery`],
/// [`Query`]) or a string in the datalog-style syntax of
/// [`bqr_query::parser`] (several `;`/newline-separated rules parse as a
/// union).
pub trait IntoQuery {
    /// Convert into the paper's query sum type.
    fn into_query(self) -> Result<Query>;
}

impl IntoQuery for Query {
    fn into_query(self) -> Result<Query> {
        Ok(self)
    }
}

impl IntoQuery for ConjunctiveQuery {
    fn into_query(self) -> Result<Query> {
        Ok(Query::Cq(self))
    }
}

impl IntoQuery for UnionQuery {
    fn into_query(self) -> Result<Query> {
        // A one-disjunct union is just its CQ; classifying it as such keeps
        // the analyses on the cheaper CQ paths.
        if self.len() == 1 {
            Ok(Query::Cq(self.disjuncts()[0].clone()))
        } else {
            Ok(Query::Ucq(self))
        }
    }
}

impl IntoQuery for FoQuery {
    fn into_query(self) -> Result<Query> {
        Ok(Query::Fo(self))
    }
}

impl IntoQuery for &str {
    fn into_query(self) -> Result<Query> {
        parse_ucq(self)
            .map_err(|e| Error::parse(self, e))?
            .into_query()
    }
}

impl IntoQuery for String {
    fn into_query(self) -> Result<Query> {
        self.as_str().into_query()
    }
}

impl<T: IntoQuery + Clone> IntoQuery for &T {
    fn into_query(self) -> Result<Query> {
        self.clone().into_query()
    }
}

/// What [`Engine::resolve`] knows about a query.
pub(crate) enum Resolved {
    /// A topped CQ or UCQ: its shape's analysis (memoised) and the constants
    /// this query has where the shape has parameters.
    Shape(Arc<AnalysedShape>, Vec<Value>),
    /// The checker's own verdict on this very query, not memoised: a
    /// rejection, a plan over `M`, or any FO query.
    Checked(ToppedAnalysis),
}

/// Builder for an [`Engine`]; start from [`Engine::builder`].
///
/// The rewriting parameters `(R, V, A, M)` plus the analysis budget form the
/// paper's [`RewritingSetting`]; on top of those the builder configures the
/// *serving* side: default [`ExecOptions`], the pipeline-cache capacity, and
/// per-view output-bound annotations for the topped checker's oracle.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    schema: DatabaseSchema,
    access: AccessSchema,
    views: ViewSet,
    bound_m: usize,
    budget: Budget,
    options: ExecOptions,
    cache_capacity: usize,
    view_bounds: Vec<(String, usize)>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            schema: DatabaseSchema::default(),
            access: AccessSchema::empty(),
            views: ViewSet::empty(),
            bound_m: 64,
            budget: Budget::generous(),
            options: ExecOptions::default(),
            cache_capacity: bqr_plan::prepared::DEFAULT_CACHE_CAPACITY,
            view_bounds: Vec::new(),
        }
    }
}

impl EngineBuilder {
    /// Replace the database schema `R`.
    pub fn schema(mut self, schema: DatabaseSchema) -> Self {
        self.schema = schema;
        self
    }

    /// Replace the access schema `A`.
    pub fn access(mut self, access: AccessSchema) -> Self {
        self.access = access;
        self
    }

    /// Replace the view set `V`.
    pub fn views(mut self, views: ViewSet) -> Self {
        self.views = views;
        self
    }

    /// Replace the plan-size bound `M`.
    pub fn bound(mut self, bound_m: usize) -> Self {
        self.bound_m = bound_m;
        self
    }

    /// Replace the budget for the worst-case-exponential analyses.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Replace the default [`ExecOptions`] — the runtime limits (deadline,
    /// intermediate-row budget, fetch cap) every execution runs under
    /// (override per call with the `*_with` methods).
    pub fn exec_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Replace the capacity of the engine's [`PipelineCache`] — and of its
    /// memo of analysed query shapes, which holds as many entries.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Declare `|V(D)| ≤ bound` for a view, feeding the topped checker's
    /// bounded-output oracle (the Example 3.3 situation: a view that is not
    /// *provably* bounded under `A` but is known bounded by the application).
    pub fn annotate_view_bound(mut self, view: impl Into<String>, bound: usize) -> Self {
        self.view_bounds.push((view.into(), bound));
        self
    }

    /// Adopt all four rewriting parameters (and the budget) from an
    /// existing [`RewritingSetting`].
    pub fn setting(mut self, setting: RewritingSetting) -> Self {
        self.schema = setting.schema;
        self.access = setting.access;
        self.views = setting.views;
        self.bound_m = setting.bound_m;
        self.budget = setting.budget;
        self
    }

    /// Validate the configuration and build the engine (with an empty
    /// instance attached; see [`Engine::attach`]).
    pub fn build(self) -> Result<Engine> {
        let setting = RewritingSetting::new(self.schema, self.access, self.views, self.bound_m)
            .with_budget(self.budget);
        setting
            .validate()
            .map_err(|e| Error::analysis("<engine configuration>", e))?;
        let empty = Database::empty(setting.schema.clone());
        let version = DataVersion::build(empty, &setting)?;
        let mut oracle = BoundedOutputOracle::new(
            setting.schema.clone(),
            setting.access.clone(),
            setting.budget,
        );
        for (view, bound) in self.view_bounds {
            oracle.annotate_view(view, bound);
        }
        Ok(Engine {
            view_constants: setting.views.constants(),
            setting,
            options: self.options,
            oracle: Arc::new(oracle),
            shapes: RwLock::new(HashMap::new()),
            cache: Arc::new(PipelineCache::new(self.cache_capacity)),
            guard_metrics: Arc::new(GuardMetrics::new()),
            data: RwLock::new(Arc::new(version)),
            writers: std::sync::Mutex::new(()),
            statements: RwLock::new(BTreeMap::new()),
        })
    }
}

/// The unified serving facade: one object owning the rewriting setting
/// `(R, V, A, M)`, the data, the pipeline cache, and the named prepared
/// statements — the full request lifecycle of the paper behind three calls:
///
/// * [`analyze`](Engine::analyze) — is this query boundedly rewritable here,
///   and with what plan?
/// * [`prepare`](Engine::prepare) — register the rewriting as a named
///   statement served through the [`PipelineCache`], compiled once however
///   often the data changes;
/// * [`session`](Engine::session) — an epoch-pinned snapshot to execute
///   against, consistent across calls even under concurrent
///   [`mutate`](Engine::mutate)s.
///
/// The engine is `Sync`: share it behind an `Arc` (or plain reference with
/// scoped threads) between any number of serving threads and mutators.
pub struct Engine {
    setting: RewritingSetting,
    options: ExecOptions,
    /// The topped checker's bounded-output oracle, with the configured
    /// view-bound annotations: built once, lent to every checker.
    oracle: Arc<BoundedOutputOracle>,
    /// Every constant of a view definition: what a query shape keeps literal.
    view_constants: BTreeSet<Value>,
    /// The first successful analysis of every query shape seen, by shape
    /// key: at most as many as the pipeline cache holds entries (the memo
    /// starts over when full).  The setting never changes, so nothing
    /// invalidates an entry.
    shapes: RwLock<HashMap<Vec<u8>, Arc<AnalysedShape>>>,
    cache: Arc<PipelineCache>,
    /// Engine-lifetime guardrail counters, shared into every guarded
    /// execution; snapshot with [`Engine::guard_stats`].
    guard_metrics: Arc<GuardMetrics>,
    data: RwLock<Arc<DataVersion>>,
    /// Serialises writers ([`Engine::attach`] / [`Engine::mutate`]) against
    /// each other *without* holding the `data` lock: the expensive version
    /// rebuild happens under this mutex only, and the `data` write lock is
    /// taken just for the `Arc` swap — readers never wait behind a rebuild.
    writers: std::sync::Mutex<()>,
    statements: RwLock<BTreeMap<String, PreparedStatement>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("bound_m", &self.setting.bound_m)
            .field("views", &self.setting.views.len())
            .field("statements", &self.statement_names())
            .field("cache", &self.cache)
            .finish()
    }
}

impl Engine {
    /// Start building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The rewriting setting `(R, V, A, M)` plus the budget.
    pub fn setting(&self) -> &RewritingSetting {
        &self.setting
    }

    /// The default execution options.
    pub fn exec_options(&self) -> ExecOptions {
        self.options
    }

    /// The engine's pipeline cache.
    pub fn cache(&self) -> &Arc<PipelineCache> {
        &self.cache
    }

    /// A point-in-time snapshot of the pipeline cache's counters
    /// (hits / misses / lookups / evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A point-in-time snapshot of the engine-lifetime guardrail counters:
    /// cancellations, deadline trips, memory-budget trips and fetch-budget
    /// trips — [`cache_stats`](Engine::cache_stats)' runtime-governance
    /// sibling.
    pub fn guard_stats(&self) -> GuardStats {
        self.guard_metrics.stats()
    }

    pub(crate) fn guard_metrics(&self) -> &Arc<GuardMetrics> {
        &self.guard_metrics
    }

    /// How many query shapes the engine holds an analysis for (at most the
    /// configured [`cache_capacity`](EngineBuilder::cache_capacity)).
    pub fn analysed_shapes(&self) -> usize {
        let shapes = self.shapes.read();
        shapes.unwrap_or_else(PoisonError::into_inner).len()
    }

    // ------------------------------------------------------------------
    // Data lifecycle.

    /// Attach a database instance, replacing the current one.  Views are
    /// re-materialised and access indexes built from the rows; sessions
    /// pinned to the previous version keep reading it unchanged.  Attaching
    /// a clone of [`database`](Engine::database) publishes the from-scratch
    /// version a [`mutate`](Engine::mutate) must agree with.
    pub fn attach(&self, db: Database) -> Result<()> {
        self.check_schema(&db)?;
        let _serialised = self.writers.lock().unwrap_or_else(PoisonError::into_inner);
        let version = Arc::new(DataVersion::build(db, &self.setting)?);
        *self.data.write().unwrap_or_else(PoisonError::into_inner) = version;
        Ok(())
    }

    /// Mutate the current instance through a closure and publish the result
    /// as a fresh version.  The closure sees a copy-on-write clone of the
    /// live instance (one reference count per relation; a write copies the
    /// nodes on its path through the relation's storage tree, the one
    /// ≤ 512-tuple chunk it lands in included), and its per-relation write
    /// delta is captured as it runs; the next version is then built from it without
    /// an `O(|R|)` step: view extents are maintained semi-naively — each Δ
    /// tuple joined to the rest of its view by a fixed chain of keyed
    /// probes into the relations' sorted storage and keyed indexes
    /// ([`bqr_query::maintain`]; only the first write ever to need a keyed
    /// index builds it) — and the access indexes are the ones the writes
    /// carried (`O(#shards + |groups| / #shards)` per index and write).
    /// Nothing else is derived from a relation's rows on the write path.  Only the relations (and view extents) whose contents
    /// actually changed get fresh epochs.
    /// No publish touches the pipeline cache: a compiled pipeline names the
    /// extents and constraints it reads and every execution resolves them
    /// in the version it is pinned to, so the first read after a write is a
    /// cache hit.  A closure whose net delta is empty (read-only,
    /// re-inserting present tuples, do-undo pairs) publishes nothing at all:
    /// no epoch moves.
    ///
    /// The publish is **all-or-nothing**: when the closure fails — or
    /// *panics*; the panic is contained and surfaces as
    /// [`Error::MutationPanicked`] — nothing is published and the error is
    /// returned: a half-applied mutation (or half-applied delta) can never
    /// become a live version, and a panicking closure can never wedge the
    /// writers lock (poisoned locks are recovered throughout the engine).
    /// Mutations are serialised against each other, but version construction
    /// runs outside the read path's lock: concurrent reads (sessions,
    /// analyses) proceed against the previous version throughout, and
    /// closures may freely call the engine's read methods.
    ///
    /// This is [`mutate_batch`](Engine::mutate_batch) with one closure, so a
    /// failing closure has its writes undone before the (then empty) delta
    /// is taken.  A closure may assign a relation — or the whole instance —
    /// wholesale: its delta is then found by diffing the relation against
    /// the live one (`O(|R|)`), and the publish builds the replacement's
    /// access indexes from its rows.  A closure that leaves the instance
    /// with a schema other than the engine's fails with
    /// [`Error::SchemaMismatch`] and publishes nothing.
    pub fn mutate<R>(&self, f: impl FnOnce(&mut Database) -> bqr_data::Result<R>) -> Result<R> {
        let outcome = self.mutate_batch([f])?.pop();
        outcome.expect("mutate_batch returns one outcome per closure")
    }

    /// Apply a burst of mutation closures in **one** delta-tracked version
    /// publish: the copy-on-write relation fork, the net-delta extraction,
    /// the index patching and the semi-naive view maintenance all
    /// run once for the whole batch instead of once per closure — the
    /// amortisation the serving front's write batching rides on.
    ///
    /// The closures run one after another on one fork of the live instance,
    /// each with its own delta tracked; a successful closure's delta is
    /// folded into the batch's ([`Database::fold_delta`]), so a batch costs
    /// the sum of its closures' writes — a chunk a closure copied is its
    /// batch's own for every later closure — and a relation the batch
    /// leaves as it found it becomes the live version's again, epoch
    /// included.  Isolation is per closure, atomicity per batch: a closure
    /// that errors, panics or changes the schema ([`Error::SchemaMismatch`])
    /// is undone — the instance reset to the live one and the batch's delta
    /// so far replayed ([`Database::apply`]), `O(|Δ|)` paid only on failure
    /// — without disturbing its neighbours: its slot in the returned `Vec`
    /// carries the typed error, every other closure's effect still
    /// publishes.  The combined net delta becomes visible in a single
    /// version swap: readers never observe a prefix of the batch.  An empty
    /// or net-no-op batch publishes nothing (the usual no-op elision).
    ///
    /// The outer `Result` fails only when version construction failed (an
    /// index build or view maintenance error/panic — contained like a
    /// closure's, so it surfaces typed and never as a half-applied version
    /// or a wedged writer), or when replaying the delta after a failed
    /// closure did, which rewrites only tuples the instance already stored;
    /// then nothing was published.
    /// [`mutate`](Engine::mutate) is this with one closure.
    pub fn mutate_batch<R, F>(
        &self,
        closures: impl IntoIterator<Item = F>,
    ) -> Result<Vec<Result<R>>>
    where
        F: FnOnce(&mut Database) -> bqr_data::Result<R>,
    {
        let _serialised = self.writers.lock().unwrap_or_else(PoisonError::into_inner);
        let prev = Arc::clone(&self.data.read().unwrap_or_else(PoisonError::into_inner));
        let mut db = prev.database().clone();
        let mut delta = bqr_data::DeltaLog::new();
        let (mut outcomes, mut start) = (Vec::new(), Vec::new());
        for f in closures {
            start.clear();
            start.extend(db.epochs().map(|(_, epoch)| epoch));
            db.begin_delta_tracking();
            let out = catch_unwind(AssertUnwindSafe(|| {
                bqr_data::faults::check(bqr_data::faults::sites::MUTATE_CLOSURE)?;
                f(&mut db)
            }))
            .map_err(|payload| Error::MutationPanicked {
                message: panic_message(payload.as_ref()),
            })
            .and_then(|r| r.map_err(Error::Data))
            .and_then(|r| self.check_schema(&db).map(|()| r));
            match out {
                Ok(_) => db.fold_delta(&start, prev.database(), &mut delta),
                Err(_) => {
                    db = prev.database().clone();
                    db.apply(&delta).map_err(Error::Data)?;
                }
            }
            outcomes.push(out);
        }
        if delta.is_empty() {
            // No-op elision: nothing changed, so the current version — and
            // every epoch and index keyed off it — is still exact.
            return Ok(outcomes);
        }
        db.reset_untouched(prev.database(), &delta);
        let version = catch_unwind(AssertUnwindSafe(|| {
            DataVersion::apply_delta(&prev, db, &delta, &self.setting)
        }))
        .map_err(|payload| Error::MutationPanicked {
            message: panic_message(payload.as_ref()),
        })??;
        *self.data.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(version);
        Ok(outcomes)
    }

    /// `db`'s schema, and that of each of its relation instances, is the
    /// engine's: what [`attach`](Engine::attach) requires and every
    /// [`mutate`](Engine::mutate) closure must leave.
    fn check_schema(&self, db: &Database) -> Result<()> {
        let schema = &self.setting.schema;
        let relations = db.relations().map(Relation::schema);
        if db.schema() == schema && relations.eq(schema.relations()) {
            return Ok(());
        }
        Err(Error::SchemaMismatch(format!(
            "expected the engine schema ({} relations)",
            schema.relations().count()
        )))
    }

    /// A clone of the currently attached instance.
    pub fn database(&self) -> Database {
        self.data
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .database()
            .clone()
    }

    /// An epoch-pinned session over the current version: every read through
    /// it — prepared statements, ad-hoc queries, analyses — sees the
    /// same snapshot, no matter how many [`mutate`](Engine::mutate)s land
    /// concurrently.  Sessions are cheap (one `Arc` clone).
    pub fn session(&self) -> Session<'_> {
        Session::new(self, self.current_version())
    }

    // ------------------------------------------------------------------
    // Analysis.

    /// Run the topped checker on `query`.
    fn check(&self, query: &Query) -> Result<ToppedAnalysis> {
        let checker = ToppedChecker::with_oracle(&self.setting, Arc::clone(&self.oracle));
        match query {
            Query::Cq(cq) => checker.analyze_cq(cq),
            other => {
                let fo = other
                    .to_fo()
                    .map_err(|e| Error::analysis(other, bqr_core::CoreError::from(e)))?;
                checker.analyze(&fo)
            }
        }
        .map_err(|e| Error::analysis(query, e))
    }

    /// The topped analysis of `query`, through the shape memo: a CQ or UCQ
    /// whose shape was analysed before (and found topped) is answered from
    /// that analysis without running the checker; a new shape is checked
    /// and, when topped, remembered.  Rejections are not remembered (their
    /// reasons quote the query), and FO queries have no shape.
    pub(crate) fn resolve(&self, query: &Query) -> Result<Resolved> {
        let Some(shape) = QueryShape::of(query, &self.view_constants) else {
            return Ok(Resolved::Checked(self.check(query)?));
        };
        let shapes = self.shapes.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(analysed) = shapes.get(&shape.key) {
            return Ok(Resolved::Shape(Arc::clone(analysed), shape.params));
        }
        drop(shapes);
        match self.check(query)? {
            ToppedAnalysis {
                topped: true,
                plan: Some(plan),
                plan_size: Some(plan_size),
                fetch_bound: Some(fetch_bound),
                ..
            } => {
                let prepared = PreparedPlan::with_cache(plan, Arc::clone(&self.cache));
                let analysed =
                    AnalysedShape::new(&prepared, &shape.params, plan_size, fetch_bound)?;
                let mut shapes = self.shapes.write().unwrap_or_else(PoisonError::into_inner);
                if shapes.len() >= self.cache.capacity() {
                    shapes.clear();
                }
                // If another thread analysed the shape meanwhile, its entry
                // stands: it is as good.
                let analysed = shapes
                    .entry(shape.key)
                    .or_insert_with(|| Arc::new(analysed));
                Ok(Resolved::Shape(Arc::clone(analysed), shape.params))
            }
            checked => Ok(Resolved::Checked(checked)),
        }
    }

    pub(crate) fn current_version(&self) -> Arc<DataVersion> {
        Arc::clone(&self.data.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Analyse a query: run the PTIME effective-syntax checker and return an
    /// [`Analysis`] exposing the boundedness decision, the constructed plan,
    /// and [`explain`](Analysis::explain) / [`execute`](Analysis::execute)
    /// against the data version current at this call.
    ///
    /// The checker runs once per query *shape*, not per query: toppedness is
    /// a property of the query's syntax in which a constant matters only
    /// through where it sits and which constants of the query or of the
    /// views it equals, so a CQ or UCQ that differs from an earlier topped
    /// one only in constants that occur in no view definition (and in no new
    /// equality among themselves) gets that one's analysis with its own
    /// constants substituted — same `bounded`, `plan_size` and
    /// `fetch_bound`, the same plan up to the constants.  Never cached: a
    /// rejected query (each rejection is analysed, and worded, afresh) and a
    /// query handed in as an FO AST.
    pub fn analyze<Q: IntoQuery>(&self, query: Q) -> Result<Analysis> {
        let query = query.into_query()?;
        let resolved = self.resolve(&query)?;
        Ok(Analysis::new(query, resolved, self.current_version(), self))
    }

    /// Run the exact (worst-case exponential, budgeted) decision procedure
    /// for `VBRP` on a query, looking for a plan in `target`.  The PTIME
    /// check behind [`analyze`](Engine::analyze) is sound but incomplete;
    /// this is the complete-but-expensive counterpart for small instances.
    ///
    /// To serve the witness through this engine's cache (so it shows up in
    /// [`cache_stats`](Engine::cache_stats) and respects the configured
    /// capacity), prepare it with
    /// `PreparedPlan::with_cache(plan, Arc::clone(engine.cache()))`.
    ///
    /// An exhausted analysis [`Budget`](bqr_query::Budget) (or an input
    /// outside the decidable fragment) surfaces as [`Error::Analysis`]
    /// naming the query — the facade refuses rather than answer "unknown";
    /// callers who want to inspect the undecided outcome itself can run
    /// [`bqr_core::decide::decide_vbrp`] directly.
    pub fn decide<Q: IntoQuery>(&self, query: Q, target: PlanLanguage) -> Result<DecisionOutcome> {
        let query = query.into_query()?;
        let display = query.to_string();
        let instance = VbrpInstance::new(self.setting.clone(), query);
        match decide_vbrp(&instance, target) {
            Ok(DecisionOutcome::Unknown(why)) => Err(Error::analysis(
                display,
                bqr_core::CoreError::Undecided(why),
            )),
            Ok(outcome) => Ok(outcome),
            Err(e) => Err(Error::analysis(display, e)),
        }
    }

    // ------------------------------------------------------------------
    // Prepared statements.

    /// Analyse a query and register its bounded plan as a named prepared
    /// statement on the engine's pipeline cache.  Fails with
    /// [`Error::NoRewriting`] when the query is not topped by the setting
    /// (use [`analyze`](Engine::analyze) first to inspect why).
    ///
    /// Like [`analyze`](Engine::analyze), this runs the checker only for a
    /// query shape not seen before; statements of one shape share its
    /// analysis and its compiled pipeline and differ in the constants they
    /// bind, so preparing "the same question about another customer" costs a
    /// parse and a plan-sized substitution.
    ///
    /// Re-preparing an existing name replaces the statement; sessions always
    /// resolve names at execution time.  When an [`Analysis`] is already in
    /// hand, [`prepare_from`](Engine::prepare_from) registers it without
    /// re-running the checker.
    pub fn prepare<Q: IntoQuery>(&self, name: &str, query: Q) -> Result<PreparedStatement> {
        let analysis = self.analyze(query)?;
        self.prepare_from(name, &analysis)
    }

    /// Register an already-analysed query as a named prepared statement —
    /// the analyse-once half of the `analyze` → `prepare` flow (no second
    /// checker run).  The statement keeps the analysis's
    /// [`fetch_bound`](Analysis::fetch_bound) as its price
    /// ([`PreparedStatement::fetch_bound`]).
    pub fn prepare_from(&self, name: &str, analysis: &Analysis) -> Result<PreparedStatement> {
        let statement = PreparedStatement::new(
            name,
            analysis.query().clone(),
            analysis.prepared_plan()?.clone(),
            // A plan always comes with its bound: the checker sets both.
            analysis.fetch_bound().unwrap_or(usize::MAX),
        );
        self.statements
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), statement.clone());
        Ok(statement)
    }

    /// The prepared statement registered under `name` (a handle: five
    /// pointer copies, the plan and its shape are shared).
    pub fn statement(&self, name: &str) -> Result<PreparedStatement> {
        self.statements
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownStatement(name.to_string()))
    }

    /// The names of every registered prepared statement, sorted.
    pub fn statement_names(&self) -> Vec<String> {
        self.statements
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect()
    }

    /// Remove a prepared statement; returns whether it existed.  (Its cached
    /// pipelines age out of the LRU cache naturally.)
    pub fn forget(&self, name: &str) -> bool {
        self.statements
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(name)
            .is_some()
    }
}
