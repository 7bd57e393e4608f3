//! Epoch-pinned sessions and named prepared statements.

use crate::analysis::Analysis;
use crate::engine::{Engine, IntoQuery, Resolved};
use crate::error::{Error, Result};
use bqr_core::{Query, RewritingSetting};
use bqr_data::{Database, IndexedDatabase};
use bqr_plan::{CancellationToken, ExecOptions, ExecOutput, Guard, PreparedPlan};
use bqr_query::MaterializedViews;
use std::sync::Arc;

/// One immutable, published version of the engine's data: the instance, its
/// access indexes, and the materialised view extents, all built from the
/// same `Database` state.  Versions are shared by `Arc`: a session pins one
/// and every read through the session resolves against it, which is what
/// makes sessions snapshot-consistent for free — a concurrent
/// [`Engine::mutate`] publishes a *new* version (fresh relation epochs)
/// without touching this one.
#[derive(Debug)]
pub(crate) struct DataVersion {
    idb: IndexedDatabase,
    views: MaterializedViews,
}

impl DataVersion {
    /// Build the access indexes for `db` from its rows, then materialise the
    /// views — a CQ or UCQ view by the delta plans that maintain it later.
    pub(crate) fn build(db: Database, setting: &RewritingSetting) -> Result<DataVersion> {
        let idb = IndexedDatabase::build(db, setting.access.clone())?;
        let views = setting.views.materialize(idb.database())?;
        Ok(DataVersion { idb, views })
    }

    /// Build the successor of `prev` for `db = prev.database() + delta`
    /// without paying `O(|D|)`: the access indexes are the ones `db`'s
    /// relations carry, patched by the writes that made it, and view extents
    /// are maintained semi-naively from the delta — by keyed probes into the
    /// two instances' relations, whose keyed indexes those writes carried too.
    /// Relations and extents whose contents did not change keep their epochs
    /// — and the keyed indexes that go with them.
    pub(crate) fn apply_delta(
        prev: &DataVersion,
        db: Database,
        delta: &bqr_data::DeltaLog,
        setting: &RewritingSetting,
    ) -> Result<DataVersion> {
        let idb = prev.idb.apply_delta(db, delta)?;
        let views = bqr_query::maintain::maintain(
            &setting.views,
            prev.views(),
            prev.database(),
            idb.database(),
            delta,
        )
        .map_err(Error::Query)?;
        Ok(DataVersion { idb, views })
    }

    pub(crate) fn database(&self) -> &Database {
        self.idb.database()
    }

    pub(crate) fn idb(&self) -> &IndexedDatabase {
        &self.idb
    }

    pub(crate) fn views(&self) -> &MaterializedViews {
        &self.views
    }
}

/// A named prepared statement: a bounded rewriting registered on the
/// engine's pipeline cache under a name.  The handle is five pointers — the
/// name, the query, and the plan, its constants and its shape behind
/// `Arc`s (the shape shared with every statement that differs from this one
/// only in constants) — so cloning one, as every lookup by name does, copies
/// nothing.  Executions go through [`Session`]s (or the [`Engine`] one-shot
/// helpers), which bind the pinned version's extents and indexes to the
/// shape's compiled pipeline on every call; no data change recompiles it.
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    name: Arc<str>,
    query: Arc<Query>,
    plan: PreparedPlan,
}

impl PreparedStatement {
    pub(crate) fn new(name: &str, query: Query, plan: PreparedPlan) -> PreparedStatement {
        PreparedStatement {
            name: Arc::from(name),
            query: Arc::new(query),
            plan,
        }
    }

    /// The statement's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The query the statement answers.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The bounded plan behind the statement.
    pub fn plan(&self) -> &bqr_plan::QueryPlan {
        self.plan.plan()
    }

    /// The canonical fingerprint of the plan's shape (the plan half of the
    /// pipeline-cache key; statements that differ only in constants share
    /// it).
    pub fn fingerprint(&self) -> bqr_plan::PlanFingerprint {
        self.plan.fingerprint()
    }

    pub(crate) fn prepared(&self) -> &PreparedPlan {
        &self.plan
    }
}

/// An epoch-pinned read session.
///
/// A session pins the data version that was current when
/// [`Engine::session`] was called: every execution through it
/// reads exactly that snapshot, even while concurrent [`Engine::mutate`]s
/// bump relation epochs and publish newer versions.  Repeated executions
/// are warm as well, and stay warm whatever other sessions do: the pipeline
/// cache is keyed by the plan's shape alone, so sessions pinned to
/// different versions share one compiled pipeline and each binds its own
/// version's extents and indexes to it.
///
/// Statement *names* resolve against the engine at call time (a re-prepared
/// statement is picked up); the *data* never moves.  Drop the session and
/// open a new one to observe later versions.
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    version: Arc<DataVersion>,
}

impl<'e> Session<'e> {
    pub(crate) fn new(engine: &'e Engine, version: Arc<DataVersion>) -> Session<'e> {
        Session { engine, version }
    }

    /// The engine this session reads from.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    /// The pinned instance.
    pub fn database(&self) -> &Database {
        self.version.database()
    }

    /// The pinned materialised view extents.
    pub fn views(&self) -> &MaterializedViews {
        self.version.views()
    }

    /// The epoch of every relation of the pinned instance, in name order —
    /// constant for the lifetime of the session (the pin, observably).
    pub fn epochs(&self) -> Vec<(String, u64)> {
        self.version
            .database()
            .epochs()
            .map(|(name, epoch)| (name.to_string(), epoch))
            .collect()
    }

    /// Execute a named prepared statement against the pinned version under
    /// the engine's default [`ExecOptions`].
    pub fn execute(&self, name: &str) -> Result<ExecOutput> {
        self.execute_with(name, &self.engine.exec_options())
    }

    /// [`execute`](Session::execute) under explicit options.
    pub fn execute_with(&self, name: &str, options: &ExecOptions) -> Result<ExecOutput> {
        let statement = self.engine.statement(name)?;
        self.execute_statement_with(&statement, options)
    }

    /// Execute a [`PreparedStatement`] handle directly (no name lookup).
    pub fn execute_statement(&self, statement: &PreparedStatement) -> Result<ExecOutput> {
        self.execute_statement_with(statement, &self.engine.exec_options())
    }

    /// [`execute`](Session::execute) honouring a caller-held
    /// [`CancellationToken`]: trip it from any thread and the execution
    /// stops at its next checkpoint with
    /// [`bqr_plan::ExecError::Cancelled`] wrapped in
    /// [`Error::Execution`](crate::Error::Execution).
    pub fn execute_with_token(
        &self,
        name: &str,
        options: &ExecOptions,
        token: CancellationToken,
    ) -> Result<ExecOutput> {
        let statement = self.engine.statement(name)?;
        self.execute_statement_guarded(&statement, options, token)
    }

    /// [`execute_statement`](Session::execute_statement) under explicit
    /// options.
    pub fn execute_statement_with(
        &self,
        statement: &PreparedStatement,
        options: &ExecOptions,
    ) -> Result<ExecOutput> {
        self.execute_statement_guarded(statement, options, CancellationToken::new())
    }

    /// The fully general execution path: explicit options plus a caller-held
    /// cancellation token, with guardrail limits from `options.limits`
    /// enforced and trips recorded in the engine's
    /// [`guard_stats`](Engine::guard_stats).
    pub fn execute_statement_guarded(
        &self,
        statement: &PreparedStatement,
        options: &ExecOptions,
        token: CancellationToken,
    ) -> Result<ExecOutput> {
        let guard = Guard::with_token(&options.limits, token)
            .with_metrics(std::sync::Arc::clone(self.engine.guard_metrics()));
        statement
            .prepared()
            .execute_guarded(self.version.idb(), self.version.views(), options, &guard)
            .map_err(|e| Error::execution(statement.name(), e))
    }

    /// Analyse an ad-hoc query and execute its bounded plan against the
    /// pinned version, without registering a statement.  Fails with
    /// [`Error::NoRewriting`] when the query is not topped by the setting.
    ///
    /// A CQ or UCQ whose *shape* the engine has analysed before (see
    /// [`Engine::analyze`] for what a shape is) costs a parse and an
    /// execution: the shape's memoised analysis stands in for the checker
    /// run, its compiled pipeline is a pipeline-cache hit, and the query's
    /// constants are interned and bound to the pipeline's slots — no plan
    /// tree is built for it.  A new shape pays the checker and one compile,
    /// once.  Never cached: rejections, and queries handed in as FO ASTs.
    pub fn query<Q: IntoQuery>(&self, query: Q) -> Result<ExecOutput> {
        let query = query.into_query()?;
        match self.engine.resolve(&query)? {
            Resolved::Shape(shape, params) => {
                let guard = Guard::new(&self.engine.exec_options().limits)
                    .with_metrics(Arc::clone(self.engine.guard_metrics()));
                let bindings = shape.bindings(&params)?;
                shape
                    .prepared
                    .execute_guarded(self.version.idb(), self.version.views(), &guard, &bindings)
                    .map_err(|e| Error::execution(&query.to_string(), e))
            }
            checked => {
                Analysis::new(query, checked, Arc::clone(&self.version), self.engine).execute()
            }
        }
    }
}
