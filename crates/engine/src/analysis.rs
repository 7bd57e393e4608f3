//! The result of [`Engine::analyze`](crate::Engine::analyze).

use crate::engine::{Engine, Resolved};
use crate::error::{Error, Result};
use crate::session::DataVersion;
use bqr_core::Query;
use bqr_plan::{CancellationToken, ExecOptions, ExecOutput, GuardMetrics, PreparedPlan, QueryPlan};
use std::sync::Arc;

/// The boundedness analysis of one query, pinned to the data version that
/// was current when [`Engine::analyze`](crate::Engine::analyze) ran.
///
/// Exposes the decision ([`bounded`](Analysis::bounded) plus
/// [`reason`](Analysis::reason) on rejection), the constructed plan and its
/// static measures ([`plan_size`](Analysis::plan_size),
/// [`fetch_bound`](Analysis::fetch_bound) — the paper's `size(Q_ε, Q)` and
/// `|D_ξ|` bound), and two dynamic views of the plan against the pinned
/// data: [`explain`](Analysis::explain) (the compiled operator pipeline,
/// one operator per line) and [`execute`](Analysis::execute).
#[derive(Debug)]
pub struct Analysis {
    query: Query,
    topped: bool,
    plan_size: Option<usize>,
    fetch_bound: Option<usize>,
    reason: Option<String>,
    /// The constructed plan — this query's own, with its own constants — as
    /// a handle on the engine's pipeline cache.
    prepared: Option<PreparedPlan>,
    version: Arc<DataVersion>,
    options: ExecOptions,
    guard_metrics: Arc<GuardMetrics>,
}

impl Analysis {
    pub(crate) fn new(
        query: Query,
        resolved: Resolved,
        version: Arc<DataVersion>,
        engine: &Engine,
    ) -> Analysis {
        let (topped, plan_size, fetch_bound, reason, prepared) = match resolved {
            Resolved::Shape(shape, params) => (
                true,
                Some(shape.plan_size),
                Some(shape.fetch_bound),
                None,
                Some(shape.bind(&params)),
            ),
            Resolved::Checked(checked) => (
                checked.topped,
                checked.plan_size,
                checked.fetch_bound,
                checked.reason,
                checked
                    .plan
                    .map(|plan| PreparedPlan::with_cache(plan, Arc::clone(engine.cache()))),
            ),
        };
        Analysis {
            query,
            topped,
            plan_size,
            fetch_bound,
            reason,
            prepared,
            version,
            options: engine.exec_options(),
            guard_metrics: Arc::clone(engine.guard_metrics()),
        }
    }

    /// The analysed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Is the query topped by the engine's `(R, V, A, M)` — i.e. does it
    /// have an `M`-bounded rewriting this engine can construct and serve?
    pub fn bounded(&self) -> bool {
        self.topped
    }

    /// The constructed bounded plan.  Present whenever the constructive
    /// checker succeeded — even when the plan exceeds `M`
    /// ([`bounded`](Analysis::bounded) is then `false`), so callers can see
    /// how far over budget the query is.
    pub fn plan(&self) -> Option<&QueryPlan> {
        self.prepared.as_ref().map(PreparedPlan::plan)
    }

    /// The size of the constructed plan (the paper's `size(Q_ε, Q)`).
    pub fn plan_size(&self) -> Option<usize> {
        self.plan_size
    }

    /// Worst-case bound on the base tuples the plan fetches (`|D_ξ|`).
    pub fn fetch_bound(&self) -> Option<usize> {
        self.fetch_bound
    }

    /// Why the query was rejected (or why the plan exceeds `M`), when it
    /// was.
    pub fn reason(&self) -> Option<&str> {
        self.reason.as_deref()
    }

    /// The constructed plan when the query is bounded, or the typed
    /// [`Error::NoRewriting`] rejection.  The single gate every serving
    /// path goes through ([`execute`](Analysis::execute),
    /// [`explain`](Analysis::explain),
    /// [`Engine::prepare`](crate::Engine::prepare),
    /// [`Session::query`](crate::Session::query)): a plan that exists but
    /// exceeds `M` is *not* served — inspect it via
    /// [`plan`](Analysis::plan).
    pub fn bounded_plan(&self) -> Result<&QueryPlan> {
        self.prepared_plan().map(PreparedPlan::plan)
    }

    /// [`bounded_plan`](Analysis::bounded_plan) as a prepared handle on the
    /// engine's cache.
    pub(crate) fn prepared_plan(&self) -> Result<&PreparedPlan> {
        match &self.prepared {
            Some(prepared) if self.topped => Ok(prepared),
            _ => Err(Error::NoRewriting {
                query: self.query.to_string(),
                reason: self.reason.clone(),
            }),
        }
    }

    /// The compiled operator pipeline of the plan over the pinned data
    /// version, one operator per line (built on
    /// [`bqr_plan::Pipeline::describe`]).  Compilation goes through the
    /// engine's pipeline cache, so explaining a statement the engine already
    /// serves is free — and executing an explained plan is warm.
    pub fn explain(&self) -> Result<String> {
        let pipeline = self
            .prepared_plan()?
            .pipeline(self.version.idb(), self.version.views(), &self.options)
            .map_err(|e| Error::execution(&self.query.to_string(), e))?;
        Ok(pipeline.describe())
    }

    /// Execute the constructed plan against the pinned data version under
    /// the engine's [`ExecOptions`].  One-shot ad-hoc serving; register the
    /// query with [`Engine::prepare`](crate::Engine::prepare) for repeated
    /// serving by name.
    pub fn execute(&self) -> Result<ExecOutput> {
        self.execute_with(&self.options)
    }

    /// [`execute`](Analysis::execute) under explicit options.  Guardrail
    /// limits on the options are enforced, with trips recorded in the
    /// engine's [`guard_stats`](crate::Engine::guard_stats).
    pub fn execute_with(&self, options: &ExecOptions) -> Result<ExecOutput> {
        let plan = self.prepared_plan()?;
        let token = CancellationToken::new();
        let metrics = &self.guard_metrics;
        self.version
            .execute(plan.shape(), plan.constants(), options, token, metrics)
            .map_err(|e| Error::execution(&self.query.to_string(), e))
    }
}
