//! Plan execution: a compiled operator pipeline over interned ids, with
//! I/O accounting.
//!
//! The invariant that makes bounded rewriting work is visible directly in the
//! code: the only place base data is read is the fetch operator, which goes
//! through the constraint indices of the access schema ([`bqr_data::IndexedDatabase`]).
//! Everything else works on intermediate results, cached view extents, or
//! constants.
//!
//! # Execution model
//!
//! [`execute`] compiles the plan tree into a flat [`Pipeline`] of operators
//! (fetch, view scan, view probe, hash join, select, project, product,
//! union, difference, dedup) and evaluates them in dependency order over
//! columns of dense [`ValueId`]s:
//!
//! * a view extent under an equi-join is never read whole: the other
//!   operand's rows probe the keyed index the extent itself holds on the
//!   joined columns ([`Relation::keyed_index`]: built by the first read,
//!   patched by each write that moves the view, shared by every execution
//!   and version in between) — no extent copy, no per-execution hash-join
//!   build, no rebuild after a write, at the price of one index per
//!   (view, join columns) kept as long as the extent.  A bare or merely
//!   filtered view leaf is scanned from the extent's own id rows
//!   ([`Relation::id_chunks`]: one copy per scan);
//! * fetches go through the id-native constraint indexes
//!   ([`bqr_data::InternedAccessIndex`]), with `X`-keys deduplicated globally
//!   so `fetch_calls` counts distinct probes exactly as the set-semantics
//!   interpreter did;
//! * an extent and a constraint index are *slots*, as a constant is (below):
//!   compilation reads the plan and nothing else, numbering the views and
//!   constraints it names, and every execution binds those numbers first —
//!   a view to its extent in the `views` it runs on (nothing is interned or
//!   indexed until an operator asks), a constraint, by content, to its index
//!   in the `idb` it runs on.  That step is where an unknown view, an extent
//!   of the wrong arity or a constraint outside the access schema is
//!   reported.  So compiled operators hold no data, and a data version, a
//!   reordered access schema or an option set is nothing a compiled shape
//!   could be stale for;
//! * the σ-over-× join pattern compiles to a view probe when an operand is
//!   a view leaf (the right one if it is, else the left; no cardinality
//!   rule — probing a kept index is a hash join's probe without its build,
//!   whichever side is larger) and otherwise to a hash join whose build side
//!   is the smaller input (the PR 2 lesson — actual cardinalities are the
//!   best statistics, and at pipeline time they are exact);
//! * a constant is a *slot*, not a value: compilation numbers the plan's
//!   constant occurrences ([`PlanNode::constant_slots`] order) and never
//!   looks at them, and an execution runs the operators with one interned id
//!   bound per slot — so the compiled operators serve every plan of the
//!   same shape, and a [`Pipeline`] is those shared operators plus one
//!   plan's ids;
//! * `Tuple`s (and `Value`s) are materialised only at the root.
//!
//! # `FetchStats` semantics (pinned)
//!
//! `fetched_tuples` is the paper's `|D_ξ|`, counted as a bag over distinct
//! `X`-keys per fetch operator.  `view_tuples` counts the **rows read from
//! extents**: a scanned or filtered view leaf reads the full cached extent,
//! *before* any selection above it (reading the cache is the I/O, filtering
//! happens afterwards in memory); a probed one reads the rows its probes
//! return — the (input row, extent row) pairs agreeing on every join
//! equality, *before* the join's other conditions.  Both engines (this
//! pipeline and [`mod@reference`], which counts those pairs in its own join
//! loop, index-free) implement exactly these semantics and
//! `tests/exec_diff.rs` holds them equal on randomized plans.
//!
//! # Vectorised kernels
//!
//! The hot operators — selection, view filtering and probing, projection,
//! hash-join build/probe, fetch probing, dedup — run as batch kernels
//! (the crate-private `kernel` module, `BATCH_ROWS` = 1024 rows at a time)
//! with selection-vector passing: a filter never copies a row until every
//! condition has voted, probes hash bare `ValueId`s for single-column join
//! keys, and guard checks/row-budget charges happen once per batch (the
//! same cadence as the former per-row checkpoint mask, preserving PR 6's
//! pre-charge semantics and overhead gate).
//!
//! # Parallelism
//!
//! [`execute_with`] takes [`ExecOptions`]: with `parallel` set,
//! data-parallel operators (select, project, view and hash-join probe,
//! fetch probe, product) are driven by the morsel scheduler (the
//! crate-private `morsel` module): worker threads pull fixed-size morsels of
//! the input from a shared queue and results merge *in morsel order*.
//! Because morsel boundaries are a pure function of `(rows, workers)` and
//! every kernel is order-preserving, parallel execution produces
//! bit-identical tables (and identical `FetchStats`) to serial execution.
//! [`ExecOptions::parallel_auto`] additionally picks the worker count per
//! operator from its input cardinalities (see
//! [`ExecOptions::auto_worker_count`]).
//!
//! The original tree-walking interpreter (`BTreeSet<Tuple>` at every node)
//! is retained verbatim as [`mod@reference`]: it is the oracle for the
//! differential tests and the baseline of the plan benchmarks.

use crate::error::PlanError;
use crate::guard::{Guard, GuardLimits};
use crate::kernel;
use crate::morsel::run_morsels;
use crate::node::{PlanNode, QueryPlan, SelectCondition};
use crate::Result;
use bqr_data::{
    AccessConstraint, FetchStats, IndexedDatabase, InternedAccessIndex, Relation, Tuple, ValueId,
};
use bqr_query::MaterializedViews;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// The result of executing a plan: the answer relation and the I/O counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecOutput {
    /// The answer tuples (sorted, duplicate-free).
    pub tuples: Vec<Tuple>,
    /// How much data was accessed: `fetched_tuples` is the paper's `|D_ξ|`.
    pub stats: FetchStats,
}

impl ExecOutput {
    /// `|D_ξ|`: the number of base tuples fetched while executing the plan.
    pub fn base_tuples_fetched(&self) -> usize {
        self.stats.fetched_tuples
    }
}

/// Options controlling pipeline execution.  They say how operators are
/// driven, never what a pipeline computes, so no cache looks at them: every
/// option set executes the one compiled shape of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// How many contiguous row ranges data-parallel operators split their
    /// inputs into.  Meaningful only with `parallel`; clamped to ≥ 1.
    pub shards: usize,
    /// Evaluate data-parallel operators on `shards` scoped threads.  Inputs
    /// below [`ExecOptions::PARALLEL_MIN_ROWS`] rows stay serial — thread
    /// startup would dominate.  Output is bit-identical to serial execution.
    pub parallel: bool,
    /// With `parallel`, ignore `shards` and pick the morsel worker count per
    /// operator from its input cardinalities
    /// ([`ExecOptions::auto_worker_count`] over the operator's work hint,
    /// capped at the hardware thread count).  Output is bit-identical for
    /// every worker count, so auto-selection never changes answers.
    pub auto: bool,
    /// Runtime guardrails (deadline, intermediate-row budget, fetch cap).
    /// All disabled by default; see [`crate::guard`] for semantics.
    pub limits: GuardLimits,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            shards: 1,
            parallel: false,
            auto: false,
            limits: GuardLimits::none(),
        }
    }
}

impl ExecOptions {
    /// Operators with fewer input rows than this run serially even under
    /// `parallel` (spawning threads costs more than the work saved).
    pub const PARALLEL_MIN_ROWS: usize = 4096;

    /// Serial execution (the default).
    pub fn serial() -> Self {
        ExecOptions::default()
    }

    /// Parallel execution over `shards` morsel-pulling workers.
    pub fn parallel(shards: usize) -> Self {
        ExecOptions {
            shards: shards.max(1),
            parallel: true,
            auto: false,
            limits: GuardLimits::none(),
        }
    }

    /// Parallel execution with an automatically chosen worker count: each
    /// data-parallel operator sizes its worker pool from its own input
    /// cardinalities (row counts, index group statistics) via
    /// [`ExecOptions::auto_worker_count`], so small inputs stay serial and
    /// large ones scale up to the hardware thread count without the caller
    /// guessing a shard number.
    pub fn parallel_auto() -> Self {
        ExecOptions {
            shards: 1,
            parallel: true,
            auto: true,
            limits: GuardLimits::none(),
        }
    }

    /// The cost heuristic behind [`ExecOptions::parallel_auto`], as a pure
    /// function so its choices are deterministic and unit-testable: one
    /// worker per [`ExecOptions::PARALLEL_MIN_ROWS`] units of estimated
    /// work (the cardinality-derived work hint operators already compute —
    /// input rows for filters/projections, `probe_rows · avg_group` for
    /// joins, `keys · expected_group` for fetches), clamped to
    /// `[1, max_workers]`.  A hint below the threshold therefore always
    /// yields 1 (serial), matching the work-hint gate of fixed shard counts.
    pub fn auto_worker_count(work_hint: usize, max_workers: usize) -> usize {
        (work_hint / Self::PARALLEL_MIN_ROWS).clamp(1, max_workers.max(1))
    }

    /// How many morsel workers an operator with this estimated `work_hint`
    /// should use under these options: 1 (serial) unless `parallel` is set
    /// and the hint clears [`ExecOptions::PARALLEL_MIN_ROWS`]; then the
    /// fixed `shards` count, or the cardinality heuristic capped at the
    /// hardware thread count when `auto` is set.
    pub fn workers_for(&self, work_hint: usize) -> usize {
        if !self.parallel || work_hint < Self::PARALLEL_MIN_ROWS {
            return 1;
        }
        if self.auto {
            Self::auto_worker_count(work_hint, hardware_workers())
        } else {
            self.shards.max(1)
        }
    }

    /// Set a wall-clock deadline (counted from when execution starts).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.limits.deadline_ms = Some(deadline.as_millis().try_into().unwrap_or(u64::MAX));
        self
    }

    /// [`ExecOptions::with_deadline`], in milliseconds.
    pub fn with_deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.limits.deadline_ms = Some(deadline_ms);
        self
    }

    /// Cap total intermediate rows materialised across all operators.
    pub fn with_row_budget(mut self, max_intermediate_rows: usize) -> Self {
        self.limits.max_intermediate_rows = Some(max_intermediate_rows);
        self
    }

    /// Cap base tuples fetched at runtime (a dynamic re-check of the
    /// paper's static `|D_ξ| <= M` bound).
    pub fn with_fetch_budget(mut self, max_fetched_tuples: usize) -> Self {
        self.limits.max_fetched_tuples = Some(max_fetched_tuples);
        self
    }
}

/// The hardware thread count, resolved once per process (the cap for
/// [`ExecOptions::parallel_auto`]'s per-operator worker counts).
fn hardware_workers() -> usize {
    static N: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *N.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Execute a plan over `idb` (base data reachable only through constraint
/// indices) and `views` (cached extents), serially.
pub fn execute(
    plan: &QueryPlan,
    idb: &IndexedDatabase,
    views: &MaterializedViews,
) -> Result<ExecOutput> {
    execute_with(plan, idb, views, &ExecOptions::serial())
}

/// [`execute`] under explicit [`ExecOptions`] (e.g. morsel-parallel).
pub fn execute_with(
    plan: &QueryPlan,
    idb: &IndexedDatabase,
    views: &MaterializedViews,
    options: &ExecOptions,
) -> Result<ExecOutput> {
    Pipeline::compile(plan, idb, views)?.execute(idb, options)
}

/// A selection condition over interned ids.  A constant is a *slot*: an
/// index into the ids bound for this execution, never a value — so one
/// compiled condition serves every plan of the shape.  (A bound constant
/// that occurs nowhere in the data has an id no table holds: equality
/// against it is always false and inequality always true, exactly the
/// `Value` semantics.)
#[derive(Debug, Clone)]
pub(crate) enum IdCond {
    EqConst(usize, usize),
    NeConst(usize, usize),
    EqCol(usize, usize),
    NeCol(usize, usize),
}

impl IdCond {
    /// Compile `cond`, giving a constant the next slot.
    fn compile(cond: &SelectCondition, next_slot: &mut usize) -> IdCond {
        let mut slot = || {
            *next_slot += 1;
            *next_slot - 1
        };
        match cond {
            SelectCondition::ColEqConst(c, _) => IdCond::EqConst(*c, slot()),
            SelectCondition::ColNeConst(c, _) => IdCond::NeConst(*c, slot()),
            SelectCondition::ColEqCol(a, b) => IdCond::EqCol(*a, *b),
            SelectCondition::ColNeCol(a, b) => IdCond::NeCol(*a, *b),
        }
    }

    pub(crate) fn holds(&self, row: &[ValueId], consts: &[ValueId]) -> bool {
        match self {
            IdCond::EqConst(c, s) => row[*c] == consts[*s],
            IdCond::NeConst(c, s) => row[*c] != consts[*s],
            IdCond::EqCol(a, b) => row[*a] == row[*b],
            IdCond::NeCol(a, b) => row[*a] != row[*b],
        }
    }

    /// Render the condition with its slots resolved against `consts`.
    fn describe(&self, consts: &[ValueId]) -> String {
        match self {
            IdCond::EqConst(c, s) => format!("#{c} = id:{}", consts[*s].as_u32()),
            IdCond::NeConst(c, s) => format!("#{c} ≠ id:{}", consts[*s].as_u32()),
            IdCond::EqCol(a, b) => format!("#{a} = #{b}"),
            IdCond::NeCol(a, b) => format!("#{a} ≠ #{b}"),
        }
    }
}

fn describe_conds(conds: &[IdCond], consts: &[ValueId]) -> String {
    let conds: Vec<String> = conds.iter().map(|c| c.describe(consts)).collect();
    conds.join(" ∧ ")
}

/// One operator of the compiled pipeline.  Operands are indexes of earlier
/// operators (the pipeline is in dependency order by construction).
#[derive(Debug)]
enum Op {
    /// A constant single-row table: slots `first_slot..first_slot + arity`
    /// of the bound ids.
    Const { first_slot: usize, arity: usize },
    /// Scan of a cached view extent, copying its stored id rows; `extent`
    /// is a slot of [`CompiledShape::views`], bound per execution.
    ViewScan { extent: usize },
    /// Selection fused directly over a view extent: filters a flat copy of
    /// the extent's id rows (morsel-partitioned under a parallel driver)
    /// without building the unfiltered scan's table first.
    ViewFilter { extent: usize, conds: Vec<IdCond> },
    /// `fetch(X ∈ input, R, Y)` through the id-native constraint index;
    /// `constraint` is a slot of [`CompiledShape::constraints`], bound per
    /// execution to that constraint's index in the database executed on.
    Fetch {
        input: usize,
        constraint: usize,
        key_cols: Vec<usize>,
    },
    /// Projection onto columns.
    Project { input: usize, cols: Vec<usize> },
    /// Selection by a conjunction of conditions.
    Select { input: usize, conds: Vec<IdCond> },
    /// Equi-join with a view extent, which is probed, never scanned.
    ViewProbe(ViewProbe),
    /// Equi-join (compiled from the σ-over-× pattern) of two non-views;
    /// `residual` holds the non-join conditions, applied to the joined row.
    HashJoin {
        left: usize,
        right: usize,
        pairs: Vec<(usize, usize)>,
        residual: Vec<IdCond>,
    },
    /// Cartesian product.
    Product { left: usize, right: usize },
    /// Concatenation (set union once deduplicated).
    Union { left: usize, right: usize },
    /// Set difference.
    Difference { left: usize, right: usize },
    /// Sort + dedup, inserted after duplicate-introducing operators so every
    /// intermediate table stays set-like (matching the interpreter's
    /// `BTreeSet` semantics without its per-tuple cost).
    Dedup { input: usize },
}

/// [`Op::ViewProbe`], the σ-over-× pattern with a view leaf as an operand:
/// every row of `input` probes the extent's own keyed index on the joined
/// view columns — a hash join's build side, kept across executions and
/// versions.  `pairs`, `residual` and the `left ++ right` output are as for
/// [`Op::HashJoin`]; the view is the left operand iff `view_left`.
#[derive(Debug)]
struct ViewProbe {
    input: usize,
    extent: usize,
    pairs: Vec<(usize, usize)>,
    view_left: bool,
    residual: Vec<IdCond>,
}

/// A plan *shape* compiled to a flat operator pipeline: plan syntax and
/// nothing else.  Whatever an execution supplies is a slot — the constants
/// (numbered in [`PlanNode::constant_slots`] order), the view extents the
/// plan names, the access constraints it fetches through — so compilation
/// reads the plan alone, and the [`crate::prepared::PipelineCache`] keeps
/// one of these per shape whatever the constants, the data version, the
/// order an access schema lists its constraints in, or the options.
#[derive(Debug)]
pub(crate) struct CompiledShape {
    ops: Vec<Op>,
    root: usize,
    arity: usize,
    /// How many constant slots the operators reference.
    slots: usize,
    /// The extent slots: every view the plan reads, with the arity the plan
    /// recorded for it.
    views: Vec<(String, usize)>,
    /// The constraint slots: every constraint the plan fetches through.
    constraints: Vec<AccessConstraint>,
    /// Per operator, the inputs it is the last consumer of.  Each is dropped
    /// as soon as that operator has run, so peak memory follows the live
    /// path, not the sum of every intermediate (the tree interpreter freed
    /// child sets the same way).
    drops: Vec<Vec<usize>>,
}

/// What one execution binds a shape's extent and constraint slots to.  An
/// operator reads an extent's rows or asks it for the keyed index it probes
/// when it runs, so binding interns nothing.
struct Bound<'a> {
    extents: &'a [&'a Relation],
    indexes: Vec<&'a InternedAccessIndex>,
}

/// A `QueryPlan` compiled to a flat operator pipeline over interned ids: a
/// compiled shape (shared with every plan that differs from this one only
/// in its constants), this plan's constants as interned ids, and the view
/// extents of the `views` it was made against.
///
/// Compile once with [`Pipeline::compile`], inspect with
/// [`Pipeline::describe`], run with [`Pipeline::execute`].  A pipeline reads
/// the extents it was made with (clones — chunk pointers — that share the
/// version's rows and keyed indexes); its fetches are resolved, by
/// constraint content, against whichever `idb` an execution names — any
/// database whose access schema has the plan's constraints will do.
#[derive(Debug, Clone)]
pub struct Pipeline {
    shape: Arc<CompiledShape>,
    consts: Arc<[ValueId]>,
    extents: Vec<Relation>,
}

/// A plan's constants as interned ids, in slot order.  These are the
/// constants written into a plan a caller compiles, prepares or analyses, a
/// handful per plan: filling the pool's `2³² − 1` ids with them would take
/// billions of plans, so `intern`'s panic on a full pool is out of reach
/// here.  (`Session::query` binds an ad-hoc query's constants through
/// `ValueId::try_intern`, and builds no plan.)
pub(crate) fn intern_constants(plan: &QueryPlan) -> Arc<[ValueId]> {
    plan.constant_slots()
        .into_iter()
        .map(ValueId::intern)
        .collect()
}

impl Pipeline {
    /// Compile `plan` and bind it to an indexed database and materialised
    /// views.  Resolution errors (unknown views, view arity mismatches,
    /// fetches through constraints outside the access schema) surface here,
    /// exactly as the interpreter reported them during evaluation.
    pub fn compile(
        plan: &QueryPlan,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
    ) -> Result<Pipeline> {
        let shape = Arc::new(CompiledShape::compile(plan));
        Pipeline::bind(shape, intern_constants(plan), idb, views)
    }

    /// `shape` with `consts` in its constant slots and the extents of
    /// `views` in its extent slots.  The fetches are resolved against `idb`
    /// here as well: a constraint outside its schema is this call's error,
    /// and forcing the constraints' id-native indexes into existence is this
    /// call's cost, not the first execution's — which still builds whatever
    /// it reads of an extent.
    pub(crate) fn bind(
        shape: Arc<CompiledShape>,
        consts: Arc<[ValueId]>,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
    ) -> Result<Pipeline> {
        let extents = shape.bind_extents(views)?;
        shape.bind(idb, &extents)?;
        let extents = extents.into_iter().cloned().collect();
        Ok(Pipeline {
            shape,
            consts,
            extents,
        })
    }

    /// Number of operators in the pipeline.
    pub fn len(&self) -> usize {
        self.shape.ops.len()
    }

    /// True when the pipeline holds no operators (never the case for a
    /// compiled plan; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.shape.ops.is_empty()
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.shape.arity
    }

    /// A human-readable rendering of the compiled pipeline, one operator per
    /// line — the plan-level counterpart of the homomorphism engine's
    /// `plan_summary()`.
    pub fn describe(&self) -> String {
        let consts = &self.consts;
        let extent = |slot: usize| {
            let rows = self.extents[slot].len();
            format!("{} [{rows} rows]", self.shape.views[slot].0)
        };
        let mut out = String::new();
        for (i, op) in self.shape.ops.iter().enumerate() {
            let line = match op {
                Op::Const { arity, .. } => format!("const/{arity}"),
                Op::ViewScan { extent: slot } => format!("view-scan {}", extent(*slot)),
                Op::ViewFilter {
                    extent: slot,
                    conds,
                } => format!(
                    "view-filter {} σ[{}]",
                    extent(*slot),
                    describe_conds(conds, consts)
                ),
                Op::Fetch {
                    input,
                    constraint,
                    key_cols,
                } => format!(
                    "fetch[{}] keys {key_cols:?} of %{input}",
                    self.shape.constraints[*constraint]
                ),
                Op::Project { input, cols } => format!("π{cols:?} %{input}"),
                Op::Select { input, conds } => {
                    format!("σ[{}] %{input}", describe_conds(conds, consts))
                }
                Op::ViewProbe(p) => {
                    let (view, pairs, input) = (extent(p.extent), &p.pairs, p.input);
                    format!("view-probe {view} on {pairs:?} of %{input}")
                }
                Op::HashJoin {
                    left, right, pairs, ..
                } => format!("hash-join %{left} ⋈ %{right} on {pairs:?}"),
                Op::Product { left, right } => format!("× %{left} %{right}"),
                Op::Union { left, right } => format!("∪ %{left} %{right}"),
                Op::Difference { left, right } => format!("\\ %{left} %{right}"),
                Op::Dedup { input } => format!("dedup %{input}"),
            };
            out.push_str(&format!("%{i} = {line}\n"));
        }
        out.push_str(&format!(
            "root: %{} (arity {})",
            self.shape.root, self.shape.arity
        ));
        out
    }

    /// Evaluate the pipeline, fetching from `idb`.  Guardrails come from
    /// `options.limits`; to share a cancellation token or engine metrics,
    /// use [`Pipeline::execute_guarded`].
    pub fn execute(&self, idb: &IndexedDatabase, options: &ExecOptions) -> Result<ExecOutput> {
        self.execute_guarded(idb, options, &Guard::new(&options.limits))
    }

    /// [`Pipeline::execute`] under an externally constructed [`Guard`]
    /// (caller-held cancellation token, engine-lifetime metrics).  Guardrail
    /// trips surface as [`PlanError::Exec`] and are recorded in the guard's
    /// metrics exactly once per execution.
    pub fn execute_guarded(
        &self,
        idb: &IndexedDatabase,
        options: &ExecOptions,
        guard: &Guard,
    ) -> Result<ExecOutput> {
        let extents: Vec<&Relation> = self.extents.iter().collect();
        self.shape
            .execute_guarded(idb, options, guard, &self.consts, &extents)
    }
}

impl CompiledShape {
    /// Compile the shape of `plan`.  Nothing can fail and nothing outside
    /// the plan is read: its constants' values are not looked at, and the
    /// views and constraints it names are only numbered.
    pub(crate) fn compile(plan: &QueryPlan) -> CompiledShape {
        let mut shape = CompiledShape {
            ops: Vec::new(),
            root: 0,
            arity: plan.arity(),
            slots: 0,
            views: Vec::new(),
            constraints: Vec::new(),
            drops: Vec::new(),
        };
        shape.root = shape.compile_node(plan.root());
        shape.drops = shape.last_consumers();
        shape
    }

    /// The extent of every extent slot, out of `views` — the one place an
    /// unknown view or an extent of another arity than the plan recorded is
    /// reported, on every call, cached shape or not; the arity check also
    /// keeps a probe's key positions inside the extent's schema.
    pub(crate) fn bind_extents<'v>(
        &self,
        views: &'v MaterializedViews,
    ) -> Result<Vec<&'v Relation>> {
        let mut extents = Vec::with_capacity(self.views.len());
        for (name, arity) in &self.views {
            let extent = views
                .extent(name)
                .ok_or_else(|| PlanError::UnknownView(name.clone()))?;
            if extent.schema().arity() != *arity {
                return Err(PlanError::ArityMismatch {
                    left: *arity,
                    right: extent.schema().arity(),
                });
            }
            extents.push(extent);
        }
        Ok(extents)
    }

    /// The environment of one execution: `extents` (from
    /// [`CompiledShape::bind_extents`]) and the id-native index of every
    /// constraint slot, located in `idb`'s access schema by content — so the
    /// position a schema lists a constraint at never matters, and a
    /// constraint the schema lacks is reported here, on every call.
    fn bind<'a>(&self, idb: &'a IndexedDatabase, extents: &'a [&'a Relation]) -> Result<Bound<'a>> {
        debug_assert_eq!(extents.len(), self.views.len());
        let mut indexes = Vec::with_capacity(self.constraints.len());
        for constraint in &self.constraints {
            let position = idb
                .constraint_position(constraint)
                .ok_or_else(|| PlanError::ConstraintNotInSchema(constraint.to_string()))?;
            indexes.push(idb.index(position)?);
        }
        Ok(Bound { extents, indexes })
    }

    /// Evaluate the shape over `idb` with `consts` bound to its constant
    /// slots (one id per slot, in [`PlanNode::constant_slots`] order) and
    /// `extents` to its extent slots.  Guardrail trips are recorded in the
    /// guard's metrics exactly once per execution.
    pub(crate) fn execute_guarded(
        &self,
        idb: &IndexedDatabase,
        options: &ExecOptions,
        guard: &Guard,
        consts: &[ValueId],
        extents: &[&Relation],
    ) -> Result<ExecOutput> {
        assert_eq!(
            consts.len(),
            self.slots,
            "a pipeline is executed with one constant per slot"
        );
        let result = self
            .bind(idb, extents)
            .and_then(|bound| self.run(options, guard, consts, &bound));
        if let Err(PlanError::Exec(e)) = &result {
            guard.record_trip(e);
        }
        result
    }

    fn run(
        &self,
        options: &ExecOptions,
        guard: &Guard,
        consts: &[ValueId],
        bound: &Bound,
    ) -> Result<ExecOutput> {
        let mut stats = FetchStats::new();
        let mut tables: Vec<IdTable> = Vec::with_capacity(self.ops.len());
        for (op, drops) in self.ops.iter().zip(&self.drops) {
            guard.check()?;
            let table = match op {
                Op::Const { first_slot, arity } => {
                    guard.charge_rows(1)?;
                    IdTable {
                        arity: *arity,
                        rows: 1,
                        data: consts[*first_slot..first_slot + arity].to_vec(),
                    }
                }
                Op::ViewScan { extent } => {
                    let extent = bound.extents[*extent];
                    stats.record_view_read(extent.len());
                    guard.charge_rows(extent.len())?;
                    IdTable::from_data(extent.schema().arity(), extent.len(), id_rows(extent))
                }
                Op::ViewFilter { extent, conds } => {
                    let extent = bound.extents[*extent];
                    // Pinned semantics: the full extent counts as read, then
                    // the filter runs over its rows.
                    stats.record_view_read(extent.len());
                    let data = id_rows(extent);
                    let rows = (extent.schema().arity(), extent.len(), &data[..]);
                    eval_select(rows, conds, consts, options, guard)?
                }
                Op::Fetch {
                    input,
                    constraint,
                    key_cols,
                } => eval_fetch(
                    &tables[*input],
                    bound.indexes[*constraint],
                    key_cols,
                    self.constraints[*constraint].n(),
                    &mut stats,
                    options,
                    guard,
                )?,
                Op::Project { input, cols } => eval_project(&tables[*input], cols, options, guard)?,
                Op::Select { input, conds } => {
                    let input = &tables[*input];
                    let rows = (input.arity, input.rows, &input.data[..]);
                    eval_select(rows, conds, consts, options, guard)?
                }
                Op::ViewProbe(probe) => eval_view_probe(
                    probe,
                    &tables[probe.input],
                    bound.extents[probe.extent],
                    consts,
                    &mut stats,
                    options,
                    guard,
                )?,
                Op::HashJoin {
                    left,
                    right,
                    pairs,
                    residual,
                } => eval_hash_join(
                    &tables[*left],
                    &tables[*right],
                    pairs,
                    residual,
                    consts,
                    options,
                    guard,
                )?,
                Op::Product { left, right } => {
                    eval_product(&tables[*left], &tables[*right], options, guard)?
                }
                Op::Union { left, right } => eval_union(&tables[*left], &tables[*right], guard)?,
                Op::Difference { left, right } => {
                    eval_difference(&tables[*left], &tables[*right], guard)?
                }
                Op::Dedup { input } => dedup_table(&tables[*input], guard)?,
            };
            tables.push(table);
            for &input in drops {
                tables[input] = IdTable::default();
            }
        }
        Ok(ExecOutput {
            tuples: materialize(&tables[self.root], guard)?,
            stats,
        })
    }

    /// For every operator, the inputs whose last consumer it is (an output
    /// nothing consumes is its own; the root is exempt — `run` materialises
    /// it at the end).  A function of the operators alone, computed once at
    /// compile time.
    fn last_consumers(&self) -> Vec<Vec<usize>> {
        let mut last: Vec<usize> = (0..self.ops.len()).collect();
        for (i, op) in self.ops.iter().enumerate() {
            let mut mark = |input: usize| last[input] = i;
            match op {
                Op::Const { .. } | Op::ViewScan { .. } | Op::ViewFilter { .. } => {}
                Op::Fetch { input, .. }
                | Op::Project { input, .. }
                | Op::Select { input, .. }
                | Op::ViewProbe(ViewProbe { input, .. })
                | Op::Dedup { input } => mark(*input),
                Op::HashJoin { left, right, .. }
                | Op::Product { left, right }
                | Op::Union { left, right }
                | Op::Difference { left, right } => {
                    mark(*left);
                    mark(*right);
                }
            }
        }
        let mut drops = vec![Vec::new(); self.ops.len()];
        for (input, &consumer) in last.iter().enumerate() {
            if input != self.root {
                drops[consumer].push(input);
            }
        }
        drops
    }

    /// Compile one plan node, appending its operators and returning the
    /// index of the operator producing the node's output.  A node takes the
    /// slots of its own constants on entry, before its children are
    /// compiled — the pre-order of [`PlanNode::constant_slots`], whatever
    /// order the operators come out in.  A view or a constraint takes the
    /// slot of its first mention.
    fn compile_node(&mut self, node: &PlanNode) -> usize {
        let op = match node {
            PlanNode::Const(t) => {
                let first_slot = self.slots;
                self.slots += t.arity();
                Op::Const {
                    first_slot,
                    arity: t.arity(),
                }
            }
            PlanNode::View { name, arity } => Op::ViewScan {
                extent: self.extent_slot(name, *arity),
            },
            PlanNode::Fetch {
                input,
                constraint,
                key_columns,
            } => Op::Fetch {
                input: self.compile_node(input),
                constraint: slot_of(&mut self.constraints, constraint),
                key_cols: key_columns.clone(),
            },
            PlanNode::Project { input, columns } => {
                let input = self.compile_node(input);
                let cols = columns.clone();
                let project = push(&mut self.ops, Op::Project { input, cols });
                // Projection introduces duplicates; keep the table set-like.
                Op::Dedup { input: project }
            }
            PlanNode::Select { input, conditions } => {
                let mut conds: Vec<IdCond> = conditions
                    .iter()
                    .map(|c| IdCond::compile(c, &mut self.slots))
                    .collect();
                // The σ-over-× pattern is how plans express joins (the plan
                // grammar has no join operator).  Materialising the product
                // first would make joins quadratic, so equi-joins across the
                // product boundary are compiled to hash joins.
                if let PlanNode::Product(a, b) = input.as_ref() {
                    let left_arity = a.arity();
                    let crosses = |i: usize, j: usize| (i < left_arity) != (j < left_arity);
                    let pairs: Vec<(usize, usize)> = conds
                        .iter()
                        .filter_map(|c| match *c {
                            IdCond::EqCol(i, j) if crosses(i, j) => {
                                Some((i.min(j), i.max(j) - left_arity))
                            }
                            _ => None,
                        })
                        .collect();
                    if !pairs.is_empty() {
                        conds.retain(|c| !matches!(*c, IdCond::EqCol(i, j) if crosses(i, j)));
                        // A view leaf under the join is probed, not scanned:
                        // the right operand if it is one, else the left.
                        let view_left = view_leaf(b).is_none();
                        let (view, other) = if view_left { (a, b) } else { (b, a) };
                        let join = match view_leaf(view) {
                            Some((name, arity)) => Op::ViewProbe(ViewProbe {
                                input: self.compile_node(other),
                                extent: self.extent_slot(name, arity),
                                pairs,
                                view_left,
                                residual: conds,
                            }),
                            None => Op::HashJoin {
                                left: self.compile_node(a),
                                right: self.compile_node(b),
                                pairs,
                                residual: conds,
                            },
                        };
                        return push(&mut self.ops, join);
                    }
                }
                // A selection directly over a view leaf fuses into one
                // extent-filtering operator: no table of the unfiltered scan
                // is built or charged, and under a parallel driver the
                // filter runs over the extent's morsels.
                if let PlanNode::View { name, arity } = input.as_ref() {
                    Op::ViewFilter {
                        extent: self.extent_slot(name, *arity),
                        conds,
                    }
                } else {
                    Op::Select {
                        input: self.compile_node(input),
                        conds,
                    }
                }
            }
            PlanNode::Rename { input } => return self.compile_node(input),
            PlanNode::Product(a, b) => Op::Product {
                left: self.compile_node(a),
                right: self.compile_node(b),
            },
            PlanNode::Union(a, b) => {
                let left = self.compile_node(a);
                let right = self.compile_node(b);
                let union = push(&mut self.ops, Op::Union { left, right });
                Op::Dedup { input: union }
            }
            PlanNode::Difference(a, b) => Op::Difference {
                left: self.compile_node(a),
                right: self.compile_node(b),
            },
        };
        push(&mut self.ops, op)
    }

    fn extent_slot(&mut self, name: &str, arity: usize) -> usize {
        slot_of(&mut self.views, &(name.to_string(), arity))
    }
}

/// `node` as a view leaf — its name and arity — looking through renames.
fn view_leaf(node: &PlanNode) -> Option<(&str, usize)> {
    match node {
        PlanNode::View { name, arity } => Some((name, *arity)),
        PlanNode::Rename { input } => view_leaf(input),
        _ => None,
    }
}

/// The slot of `item` in `list`, appended when it is not there yet.
fn slot_of<T: PartialEq + Clone>(list: &mut Vec<T>, item: &T) -> usize {
    let slot = list.iter().position(|known| known == item);
    slot.unwrap_or_else(|| push(list, item.clone()))
}

fn push<T>(list: &mut Vec<T>, item: T) -> usize {
    list.push(item);
    list.len() - 1
}

/// An intermediate result: `rows` rows of `arity` interned ids, row-major.
/// The row count is explicit because nullary tables (`arity == 0`, e.g. the
/// unit constant or a Boolean projection) carry no data yet hold rows.
#[derive(Debug, Clone, Default)]
struct IdTable {
    arity: usize,
    rows: usize,
    data: Vec<ValueId>,
}

impl IdTable {
    fn empty(arity: usize) -> IdTable {
        IdTable {
            arity,
            rows: 0,
            data: Vec::new(),
        }
    }

    fn row(&self, i: usize) -> &[ValueId] {
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    fn from_data(arity: usize, rows_hint: usize, data: Vec<ValueId>) -> IdTable {
        // A nullary table has no data to derive the row count from; the
        // caller's hint is authoritative there.
        let rows = data.len().checked_div(arity).unwrap_or(rows_hint);
        IdTable { arity, rows, data }
    }
}

/// Concatenate per-morsel flat outputs in morsel order — the merge step of
/// the bit-identical-output guarantee.
fn merge_flat(shards: Vec<Vec<ValueId>>) -> Vec<ValueId> {
    let total: usize = shards.iter().map(Vec::len).sum();
    let mut data = Vec::with_capacity(total);
    for shard in shards {
        data.extend(shard);
    }
    data
}

/// `fetch(X ∈ input, R, Y)` through `index`, the id-native index this
/// execution bound the constraint to.  `bound` is the constraint's `N`, the
/// per-key output ceiling — used to estimate the operator's work for the
/// parallel driver.
fn eval_fetch(
    input: &IdTable,
    index: &InternedAccessIndex,
    key_cols: &[usize],
    bound: usize,
    stats: &mut FetchStats,
    options: &ExecOptions,
    guard: &Guard,
) -> Result<IdTable> {
    let arity = index.arity();
    // Global key dedup in first-seen order: each distinct X-value is fetched
    // (and counted) exactly once, matching the interpreter — and making the
    // accounting independent of morsel boundaries.  Keys are kept flat
    // (`n_keys · klen` ids) for the batch probes below; single-column keys
    // dedup through a bare-id set, never hashing a slice.
    let klen = key_cols.len();
    let mut keys_flat: Vec<ValueId> = Vec::new();
    let n_keys = if klen == 0 {
        // X = ∅: the one key is the empty tuple (when any input row exists).
        usize::from(input.rows > 0)
    } else if klen == 1 {
        let c = key_cols[0];
        let mut seen: HashSet<ValueId> = HashSet::new();
        let mut i = 0;
        while i < input.rows {
            guard.check()?;
            let end = (i + kernel::BATCH_ROWS).min(input.rows);
            while i < end {
                let k = input.data[i * input.arity + c];
                if seen.insert(k) {
                    keys_flat.push(k);
                }
                i += 1;
            }
        }
        keys_flat.len()
    } else {
        let mut seen: HashSet<Vec<ValueId>> = HashSet::new();
        let mut key: Vec<ValueId> = Vec::with_capacity(klen);
        let mut i = 0;
        while i < input.rows {
            guard.check()?;
            let end = (i + kernel::BATCH_ROWS).min(input.rows);
            while i < end {
                let row = input.row(i);
                key.clear();
                key.extend(key_cols.iter().map(|&c| row[c]));
                if !seen.contains(&key) {
                    seen.insert(key.clone());
                    keys_flat.extend_from_slice(&key);
                }
                i += 1;
            }
        }
        keys_flat.len() / klen
    };
    // Work hint from the index's own cardinality statistics: each key probes
    // once and returns the mean group size (never more than the constraint's
    // bound N), so an output-heavy fetch parallelises like an output-heavy
    // join while a sparse index no longer over-provisions workers.
    let expected_group = index.avg_group_len().min(bound.max(1));
    let work_hint = n_keys.saturating_mul(expected_group);
    let shard_results = run_morsels(n_keys, work_hint, options, guard, |range| {
        let mut data = Vec::new();
        let mut local = FetchStats::new();
        let mut start = range.start;
        while start < range.end {
            guard.check()?;
            let end = (start + kernel::BATCH_ROWS).min(range.end);
            let before = local.fetched_tuples;
            // One batch probe per BATCH_ROWS keys: the index extends `data`
            // directly and records each probe's |D_ξ| into the morsel-local
            // counters, exactly as the scalar path did per key.
            index.probe_batch(
                &keys_flat[start * klen..end * klen],
                end - start,
                &mut data,
                &mut local,
            );
            // The runtime re-check of the paper's bound, charged per batch
            // on the tuples actually pulled out of base data.
            guard.charge_fetched(local.fetched_tuples - before)?;
            start = end;
        }
        guard.charge_rows(data.len() / arity.max(1))?;
        Ok((data, local))
    })?;
    let mut data = Vec::new();
    for (shard_data, shard_stats) in shard_results {
        data.extend(shard_data);
        stats.merge(&shard_stats);
    }
    Ok(IdTable::from_data(arity, 0, data))
}

fn eval_project(
    input: &IdTable,
    cols: &[usize],
    options: &ExecOptions,
    guard: &Guard,
) -> Result<IdTable> {
    let arity = cols.len();
    if arity == 0 {
        guard.charge_rows(input.rows)?;
        return Ok(IdTable {
            arity: 0,
            rows: input.rows,
            data: Vec::new(),
        });
    }
    let in_arity = input.arity;
    let shard_results = run_morsels(input.rows, input.rows, options, guard, |range| {
        let mut data = Vec::with_capacity(range.len() * arity);
        let mut start = range.start;
        while start < range.end {
            guard.check()?;
            let end = (start + kernel::BATCH_ROWS).min(range.end);
            guard.charge_rows(end - start)?;
            kernel::project(
                &input.data[start * in_arity..end * in_arity],
                in_arity,
                cols,
                &mut data,
            );
            start = end;
        }
        Ok(data)
    })?;
    Ok(IdTable::from_data(arity, 0, merge_flat(shard_results)))
}

/// A relation's stored id rows, copied flat and row-major.
fn id_rows(relation: &Relation) -> Vec<ValueId> {
    let mut data = Vec::with_capacity(relation.len() * relation.schema().arity());
    relation
        .id_chunks()
        .for_each(|chunk| data.extend_from_slice(chunk));
    data
}

/// Selection over `rows` rows of `arity` ids, flat and row-major — an
/// intermediate table's, or (σ fused over a view leaf) an extent's rows
/// copied flat, filtered in place of building the unfiltered scan first.
fn eval_select(
    (arity, rows, data): (usize, usize, &[ValueId]),
    conds: &[IdCond],
    consts: &[ValueId],
    options: &ExecOptions,
    guard: &Guard,
) -> Result<IdTable> {
    if arity == 0 {
        // Conditions reference columns, so a nullary select has none and
        // passes everything through.
        guard.charge_rows(rows)?;
        return Ok(IdTable::from_data(0, rows, Vec::new()));
    }
    let shard_results = run_morsels(rows, rows, options, guard, |range| {
        let mut out = Vec::new();
        let mut sel: Vec<u32> = Vec::with_capacity(kernel::BATCH_ROWS);
        let mut start = range.start;
        while start < range.end {
            guard.check()?;
            let end = (start + kernel::BATCH_ROWS).min(range.end);
            let batch = &data[start * arity..end * arity];
            kernel::filter(conds, consts, batch, arity, end - start, &mut sel);
            guard.charge_rows(sel.len())?;
            kernel::gather(batch, arity, end - start, &sel, &mut out);
            start = end;
        }
        Ok(out)
    })?;
    Ok(IdTable::from_data(arity, 0, merge_flat(shard_results)))
}

/// The probe phase of an equi-join, whatever holds the build side: `lookup`
/// yields the build rows matching one row of `probe` (it is lent a key
/// buffer) and a joined row is `left ++ right` whichever side probes.
/// Returns the table and the matches looked up, before the residuals.
fn probe_phase<'a, M: Iterator<Item = &'a [ValueId]>>(
    probe: &IdTable,
    (build_arity, probe_left): (usize, bool),
    (residual, consts): (&[IdCond], &[ValueId]),
    work_hint: usize,
    options: &ExecOptions,
    guard: &Guard,
    lookup: impl Fn(&[ValueId], &mut Vec<ValueId>) -> M + Sync,
) -> Result<(IdTable, usize)> {
    let out_arity = probe.arity + build_arity;
    let shard_results = run_morsels(probe.rows, work_hint, options, guard, |range| {
        let (mut data, mut matches) = (Vec::new(), 0);
        let mut key: Vec<ValueId> = Vec::new();
        let mut start = range.start;
        while start < range.end {
            guard.check()?;
            let end = (start + kernel::BATCH_ROWS).min(range.end);
            let before = data.len();
            for i in start..end {
                let row = probe.row(i);
                for build_row in lookup(row, &mut key) {
                    matches += 1;
                    let (l_row, r_row) = match probe_left {
                        true => (row, build_row),
                        false => (build_row, row),
                    };
                    // Residual conditions roll back the append.
                    let at = data.len();
                    data.extend_from_slice(l_row);
                    data.extend_from_slice(r_row);
                    if !residual.iter().all(|c| c.holds(&data[at..], consts)) {
                        data.truncate(at);
                    }
                }
            }
            guard.charge_rows((data.len() - before) / out_arity)?;
            start = end;
        }
        Ok((data, matches))
    })?;
    let (data, matches): (Vec<_>, Vec<usize>) = shard_results.into_iter().unzip();
    let table = IdTable::from_data(out_arity, 0, merge_flat(data));
    Ok((table, matches.iter().sum()))
}

/// `input ⋈ extent` without reading the extent: a probe phase over the build
/// side the extent already holds; the rows it returns are the tuples read.
fn eval_view_probe(
    probe: &ViewProbe,
    input: &IdTable,
    extent: &Relation,
    consts: &[ValueId],
    stats: &mut FetchStats,
    options: &ExecOptions,
    guard: &Guard,
) -> Result<IdTable> {
    let view_arity = extent.schema().arity();
    // One key position per distinct view column, ascending, so every join on
    // the same columns shares one index; a further input column equated with
    // the same view column must agree with the first, or the row has no match.
    let mut key_cols: Vec<(usize, usize)> = Vec::new();
    let mut agree: Vec<(usize, usize)> = Vec::new();
    for &(l, r) in &probe.pairs {
        let (v, c) = if probe.view_left { (l, r) } else { (r, l) };
        match key_cols.iter().find(|k| k.0 == v) {
            Some(&(_, first)) => agree.push((first, c)),
            None => key_cols.push((v, c)),
        }
    }
    key_cols.sort_unstable();
    let positions: Vec<usize> = key_cols.iter().map(|k| k.0).collect();
    let index = extent.keyed_index(&positions);
    let work_hint = input.rows.saturating_mul(index.avg_group_len());
    let sides = (view_arity, !probe.view_left);
    let conds = (&probe.residual[..], consts);
    let lookup = |row: &[ValueId], key: &mut Vec<ValueId>| {
        let mut group: &[ValueId] = &[];
        if agree.iter().all(|&(a, b)| row[a] == row[b]) {
            key.clear();
            key.extend(key_cols.iter().map(|&(_, c)| row[c]));
            group = index.probe(key);
        }
        group.chunks_exact(view_arity)
    };
    let (table, read) = probe_phase(input, sides, conds, work_hint, options, guard, lookup)?;
    stats.record_view_read(read);
    Ok(table)
}

fn eval_hash_join(
    left: &IdTable,
    right: &IdTable,
    pairs: &[(usize, usize)],
    residual: &[IdCond],
    consts: &[ValueId],
    options: &ExecOptions,
    guard: &Guard,
) -> Result<IdTable> {
    if left.rows == 0 || right.rows == 0 {
        return Ok(IdTable::empty(left.arity + right.arity));
    }
    // Cost model: build on the smaller input, probe the larger — with exact
    // cardinalities in hand the textbook rule is exact, not an estimate.
    let build_left = left.rows < right.rows;
    let (build, probe) = if build_left {
        (left, right)
    } else {
        (right, left)
    };
    let cols = |&(l, r): &(usize, usize)| if build_left { (l, r) } else { (r, l) };
    let (build_cols, probe_cols): (Vec<usize>, Vec<usize>) = pairs.iter().map(cols).unzip();
    let table = kernel::JoinTable::build(&build.data, build.arity, build.rows, &build_cols, guard)?;
    // Work hint: probing is at least one lookup per probe row, plus the
    // output rows a fanning-out build side produces.
    let avg_group = (build.rows / table.groups().max(1)).max(1);
    let work_hint = probe.rows.saturating_mul(avg_group);
    let sides = (build.arity, !build_left);
    let lookup = |row: &[ValueId], key: &mut Vec<ValueId>| {
        let matches = match &table {
            // Single-column key: probe the map with a bare id — no key
            // vector, the dominant join shape.
            kernel::JoinTable::Single(map) => map.get(&row[probe_cols[0]]),
            kernel::JoinTable::Multi(map) => {
                key.clear();
                key.extend(probe_cols.iter().map(|&c| row[c]));
                map.get(key)
            }
        };
        let matches = matches.into_iter().flatten();
        matches.map(|&b| build.row(b as usize))
    };
    let conds = (residual, consts);
    Ok(probe_phase(probe, sides, conds, work_hint, options, guard, lookup)?.0)
}

fn eval_product(
    left: &IdTable,
    right: &IdTable,
    options: &ExecOptions,
    guard: &Guard,
) -> Result<IdTable> {
    let out_arity = left.arity + right.arity;
    let out_rows = left.rows.saturating_mul(right.rows);
    // Pre-charge the whole output *before* allocating: an adversarial
    // product's row count is known exactly here, and the memory budget must
    // trip before the allocation it is guarding against.
    guard.charge_rows(out_rows)?;
    if out_arity == 0 {
        return Ok(IdTable {
            arity: 0,
            rows: out_rows,
            data: Vec::new(),
        });
    }
    let shard_results = run_morsels(left.rows, out_rows, options, guard, |range| {
        // Cap the pre-allocation: an astronomically large product under a
        // deadline (but no row budget) must not OOM on `with_capacity`
        // before the first checkpoint fires.
        const PREALLOC_CAP: usize = 1 << 22;
        let exact = range
            .len()
            .saturating_mul(right.rows)
            .saturating_mul(out_arity);
        let mut data = Vec::with_capacity(exact.min(PREALLOC_CAP));
        let mut emitted = 0usize;
        for i in range {
            let l_row = left.row(i);
            for j in 0..right.rows {
                guard.checkpoint(emitted)?;
                emitted += 1;
                data.extend_from_slice(l_row);
                data.extend_from_slice(right.row(j));
            }
        }
        Ok(data)
    })?;
    Ok(IdTable::from_data(
        out_arity,
        out_rows,
        merge_flat(shard_results),
    ))
}

fn eval_union(left: &IdTable, right: &IdTable, guard: &Guard) -> Result<IdTable> {
    guard.check()?;
    guard.charge_rows(left.rows + right.rows)?;
    let mut data = left.data.clone();
    data.extend_from_slice(&right.data);
    Ok(IdTable::from_data(left.arity, left.rows + right.rows, data))
}

fn eval_difference(left: &IdTable, right: &IdTable, guard: &Guard) -> Result<IdTable> {
    if left.arity == 0 {
        return Ok(IdTable {
            arity: 0,
            rows: if right.rows > 0 { 0 } else { left.rows },
            data: Vec::new(),
        });
    }
    let exclude: HashSet<&[ValueId]> = (0..right.rows).map(|i| right.row(i)).collect();
    let mut data = Vec::new();
    for i in 0..left.rows {
        guard.checkpoint(i)?;
        let row = left.row(i);
        if !exclude.contains(row) {
            data.extend_from_slice(row);
        }
    }
    guard.charge_rows(data.len() / left.arity)?;
    Ok(IdTable::from_data(left.arity, 0, data))
}

/// Sort + dedup a table's rows (lexicographic on ids).  Intermediate order
/// is only an engine-internal detail — the root materialisation re-sorts by
/// `Value` — but it is deterministic, which keeps parallel runs bit-identical.
fn dedup_table(input: &IdTable, guard: &Guard) -> Result<IdTable> {
    guard.check()?;
    if input.arity == 0 {
        return Ok(IdTable {
            arity: 0,
            rows: input.rows.min(1),
            data: Vec::new(),
        });
    }
    let data = kernel::dedup(input.data.clone(), input.arity);
    guard.charge_rows(data.len() / input.arity)?;
    Ok(IdTable::from_data(input.arity, 0, data))
}

/// Resolve the root table back to sorted, duplicate-free `Tuple`s — the only
/// point where the executor touches `Value`s, each read out of the pool.
fn materialize(root: &IdTable, guard: &Guard) -> Result<Vec<Tuple>> {
    let mut tuples: Vec<Tuple> = Vec::with_capacity(root.rows);
    for i in 0..root.rows {
        guard.checkpoint(i)?;
        tuples.push(Tuple::new(
            root.row(i).iter().map(|id| id.get().clone()).collect(),
        ));
    }
    tuples.sort_unstable();
    tuples.dedup();
    Ok(tuples)
}

/// The original tree-walking interpreter: `BTreeSet<Tuple>` at every node,
/// `Value` comparisons throughout.  Retained verbatim as the oracle for
/// `tests/exec_diff.rs` and the baseline of the plan benchmarks
/// (`BENCH_plan.json`); semantics — including the pinned `FetchStats`
/// accounting — are identical to the compiled pipeline.
pub mod reference {
    use super::{ExecOutput, PlanError, Result};
    use crate::node::{PlanNode, QueryPlan, SelectCondition};
    use bqr_data::{FetchStats, IndexedDatabase, Tuple, Value};
    use bqr_query::MaterializedViews;
    use std::collections::BTreeSet;

    /// Execute a plan with the reference interpreter.
    pub fn execute(
        plan: &QueryPlan,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
    ) -> Result<ExecOutput> {
        let mut stats = FetchStats::new();
        let tuples = eval(plan.root(), idb, views, &mut stats)?;
        Ok(ExecOutput {
            tuples: tuples.into_iter().collect(),
            stats,
        })
    }

    fn eval(
        node: &PlanNode,
        idb: &IndexedDatabase,
        views: &MaterializedViews,
        stats: &mut FetchStats,
    ) -> Result<BTreeSet<Tuple>> {
        match node {
            PlanNode::Const(t) => Ok([t.clone()].into_iter().collect()),
            PlanNode::View { name, arity } => {
                let extent = views
                    .extent(name)
                    .ok_or_else(|| PlanError::UnknownView(name.clone()))?;
                // Pinned semantics: the whole cached extent counts as read,
                // before any selection above this leaf (see the module docs).
                stats.record_view_read(extent.len());
                if extent.schema().arity() != *arity {
                    return Err(PlanError::ArityMismatch {
                        left: *arity,
                        right: extent.schema().arity(),
                    });
                }
                Ok(extent.iter().map(bqr_data::TupleRef::to_tuple).collect())
            }
            PlanNode::Fetch {
                input,
                constraint,
                key_columns,
            } => {
                let input_tuples = eval(input, idb, views, stats)?;
                let position = idb
                    .constraint_position(constraint)
                    .ok_or_else(|| PlanError::ConstraintNotInSchema(constraint.to_string()))?;
                let mut out = BTreeSet::new();
                let mut seen_keys: BTreeSet<Vec<Value>> = BTreeSet::new();
                for t in &input_tuples {
                    let key: Vec<Value> = key_columns.iter().map(|&c| t[c].clone()).collect();
                    // Each distinct X-value is fetched once (the index
                    // returns the same set for duplicates; re-fetching would
                    // double-count I/O).
                    if !seen_keys.insert(key.clone()) {
                        continue;
                    }
                    out.extend(idb.fetch(position, &key, stats)?);
                }
                Ok(out)
            }
            PlanNode::Project { input, columns } => {
                let input_tuples = eval(input, idb, views, stats)?;
                Ok(input_tuples.iter().map(|t| t.project(columns)).collect())
            }
            PlanNode::Select { input, conditions } => {
                // The σ-over-× pattern is how plans express joins (the plan
                // grammar has no join operator).  Materialising the product
                // first would make joins quadratic, so equi-joins across the
                // product boundary are executed as hash joins.
                if let PlanNode::Product(a, b) = input.as_ref() {
                    let left_arity = a.arity();
                    let cross_eq: Vec<(usize, usize)> = conditions
                        .iter()
                        .filter_map(|c| match c {
                            SelectCondition::ColEqCol(i, j)
                                if *i < left_arity && *j >= left_arity =>
                            {
                                Some((*i, *j - left_arity))
                            }
                            SelectCondition::ColEqCol(i, j)
                                if *j < left_arity && *i >= left_arity =>
                            {
                                Some((*j, *i - left_arity))
                            }
                            _ => None,
                        })
                        .collect();
                    if !cross_eq.is_empty() {
                        let (mut l_stats, mut r_stats) = (FetchStats::new(), FetchStats::new());
                        let left = eval(a, idb, views, &mut l_stats)?;
                        let right = eval(b, idb, views, &mut r_stats)?;
                        // Pinned semantics: a view leaf under the join (the
                        // right operand if it is one, else the left) is
                        // probed, not read — its scan goes uncounted; what
                        // counts is the rows agreeing with the other operand
                        // on every join equality, `matches` below.
                        let probe_right = super::view_leaf(b).is_some();
                        let probe_left = !probe_right && super::view_leaf(a).is_some();
                        if !probe_left {
                            stats.merge(&l_stats);
                        }
                        if !probe_right {
                            stats.merge(&r_stats);
                        }
                        let mut index: std::collections::HashMap<Vec<Value>, Vec<&Tuple>> =
                            std::collections::HashMap::new();
                        for r in &right {
                            let key: Vec<Value> =
                                cross_eq.iter().map(|&(_, j)| r[j].clone()).collect();
                            index.entry(key).or_default().push(r);
                        }
                        let mut out = BTreeSet::new();
                        for l in &left {
                            let key: Vec<Value> =
                                cross_eq.iter().map(|&(i, _)| l[i].clone()).collect();
                            if let Some(matches) = index.get(&key) {
                                if probe_left || probe_right {
                                    stats.record_view_read(matches.len());
                                }
                                for r in matches {
                                    let joined = l.concat(r);
                                    if conditions.iter().all(|c| c.holds(&joined)) {
                                        out.insert(joined);
                                    }
                                }
                            }
                        }
                        return Ok(out);
                    }
                }
                let input_tuples = eval(input, idb, views, stats)?;
                Ok(input_tuples
                    .into_iter()
                    .filter(|t| conditions.iter().all(|c| c.holds(t)))
                    .collect())
            }
            PlanNode::Rename { input } => eval(input, idb, views, stats),
            PlanNode::Product(a, b) => {
                let left = eval(a, idb, views, stats)?;
                let right = eval(b, idb, views, stats)?;
                let mut out = BTreeSet::new();
                for l in &left {
                    for r in &right {
                        out.insert(l.concat(r));
                    }
                }
                Ok(out)
            }
            PlanNode::Union(a, b) => {
                let mut left = eval(a, idb, views, stats)?;
                let right = eval(b, idb, views, stats)?;
                left.extend(right);
                Ok(left)
            }
            PlanNode::Difference(a, b) => {
                let left = eval(a, idb, views, stats)?;
                let right = eval(b, idb, views, stats)?;
                Ok(left.difference(&right).cloned().collect())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{figure1_plan, Plan};
    use bqr_data::{tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, Value};
    use bqr_query::parser::parse_cq;
    use bqr_query::ViewSet;

    fn movie_schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[
            ("person", &["pid", "name", "affiliation"]),
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
            ("like", &["pid", "id", "type"]),
        ])
        .unwrap()
    }

    fn phi1() -> AccessConstraint {
        AccessConstraint::new("movie", &["studio", "release"], &["mid"], 100).unwrap()
    }
    fn phi2() -> AccessConstraint {
        AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap()
    }

    fn setup() -> (IndexedDatabase, MaterializedViews) {
        let mut db = Database::empty(movie_schema());
        db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
        db.insert("person", tuple![2, "Bob", "NASA"]).unwrap();
        db.insert("person", tuple![3, "Cat", "ESA"]).unwrap();
        db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
            .unwrap();
        db.insert("movie", tuple![11, "Ouija", "Universal", "2014"])
            .unwrap();
        db.insert("movie", tuple![12, "Her", "WB", "2013"]).unwrap();
        db.insert("rating", tuple![10, 5]).unwrap();
        db.insert("rating", tuple![11, 3]).unwrap();
        db.insert("rating", tuple![12, 5]).unwrap();
        db.insert("like", tuple![1, 10, "movie"]).unwrap();
        db.insert("like", tuple![2, 12, "movie"]).unwrap();
        db.insert("like", tuple![3, 11, "movie"]).unwrap();
        let access = AccessSchema::new(vec![phi1(), phi2()]);

        let mut views = ViewSet::empty();
        views
            .add_cq(
                "V1",
                parse_cq(
                    "V1(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, z1, z2), like(xp, mid, 'movie')",
                )
                .unwrap(),
            )
            .unwrap();
        let cache = views.materialize(&db).unwrap();
        let idb = IndexedDatabase::build(db, access).unwrap();
        (idb, cache)
    }

    #[test]
    fn figure1_plan_computes_q0_with_bounded_io() {
        let (idb, cache) = setup();
        let plan = figure1_plan(&phi1(), &phi2()).unwrap();
        let out = execute(&plan, &idb, &cache).unwrap();
        assert_eq!(out.tuples, vec![tuple![10]], "only Lucy qualifies");
        // The plan fetched 2 movie ids (Universal/2014) and then at most 2
        // ratings — far fewer than the 12 tuples in the database, and
        // independent of how many person/like tuples exist.
        assert!(out.base_tuples_fetched() <= 4, "{:?}", out.stats);
        assert_eq!(out.stats.scanned_tuples, 0, "bounded plans never scan");
        assert!(out.stats.view_tuples >= 1, "V1 was read from cache");
    }

    #[test]
    fn compiled_pipeline_matches_reference_on_figure1() {
        let (idb, cache) = setup();
        let plan = figure1_plan(&phi1(), &phi2()).unwrap();
        let compiled = execute(&plan, &idb, &cache).unwrap();
        let interpreted = reference::execute(&plan, &idb, &cache).unwrap();
        assert_eq!(compiled.tuples, interpreted.tuples);
        assert_eq!(
            compiled.stats, interpreted.stats,
            "identical |D_ξ| accounting"
        );
        // Parallel execution is bit-identical too.
        for shards in [1usize, 2, 4] {
            let parallel =
                execute_with(&plan, &idb, &cache, &ExecOptions::parallel(shards)).unwrap();
            assert_eq!(parallel.tuples, interpreted.tuples, "{shards} shards");
            assert_eq!(parallel.stats, interpreted.stats, "{shards} shards");
        }
    }

    #[test]
    fn pipeline_introspection_names_the_operators() {
        let (idb, cache) = setup();
        let plan = figure1_plan(&phi1(), &phi2()).unwrap();
        let pipeline = Pipeline::compile(&plan, &idb, &cache).unwrap();
        assert!(!pipeline.is_empty());
        assert_eq!(pipeline.arity(), 1);
        let text = pipeline.describe();
        assert!(text.contains("fetch["), "{text}");
        assert!(text.contains("π"), "{text}");
        assert!(text.contains("root: %"), "{text}");
        // Fig. 1's σ-over-× join has V1 as an operand: it compiled into one
        // probe of V1's keyed index by the fetched movies — no scan of the
        // extent, no hash join; the only surviving bare product is the
        // const × const key constructor.
        assert!(
            text.contains("view-probe V1 [2 rows] on [(0, 0)] of %"),
            "{text}"
        );
        assert!(
            !text.contains("view-scan") && !text.contains("hash-join"),
            "{text}"
        );
        assert_eq!(text.matches("× %").count(), 1, "{text}");
        // A join of two non-views still compiles into a hash join.
        let mids = || Plan::constant(vec![10]).union(Plan::constant(vec![12]));
        let plan = mids().join_eq(mids(), &[(0, 0)]).build().unwrap();
        let text = Pipeline::compile(&plan, &idb, &cache).unwrap().describe();
        assert_eq!(text.matches("hash-join").count(), 1, "{text}");
    }

    /// Pinned `FetchStats` semantics: a scanned or filtered view leaf records
    /// its full cached extent — reading the cache is the I/O — even when a
    /// selection above it keeps nothing; a probed one records the rows its
    /// probes return, even when a residual condition drops them; fetches
    /// count every retrieved tuple even when a selection above the fetch
    /// drops them all.  Both engines agree.
    #[test]
    fn view_and_fetch_reads_are_counted_before_selection() {
        let (idb, cache) = setup();
        let extent_len = cache.extent("V1").unwrap().len();
        assert!(extent_len >= 2);
        let plan = Plan::view("V1", 1)
            .select_eq_const(0, -777)
            .build()
            .unwrap();
        for out in [
            execute(&plan, &idb, &cache).unwrap(),
            reference::execute(&plan, &idb, &cache).unwrap(),
        ] {
            assert!(out.tuples.is_empty(), "the selection keeps nothing");
            assert_eq!(
                out.stats.view_tuples, extent_len,
                "the full extent counts as read"
            );
        }

        // V1 = {10, 12} probed with {10, 11}: one probe returns a row, and
        // the residual `≠` then drops it.  With the view on the left too.
        let mids = || Plan::constant(vec![10]).union(Plan::constant(vec![11]));
        for plan in [
            mids().product(Plan::view("V1", 1)),
            Plan::view("V1", 1).rename().product(mids()),
        ] {
            let plan = plan
                .select(vec![
                    SelectCondition::ColEqCol(0, 1),
                    SelectCondition::ColNeConst(0, Value::int(10)),
                ])
                .build()
                .unwrap();
            let text = Pipeline::compile(&plan, &idb, &cache).unwrap().describe();
            assert!(text.contains("view-probe V1"), "{text}");
            for out in [
                execute(&plan, &idb, &cache).unwrap(),
                reference::execute(&plan, &idb, &cache).unwrap(),
            ] {
                assert!(out.tuples.is_empty(), "the residual keeps nothing");
                assert_eq!(out.stats.view_tuples, 1, "the probed row counts as read");
            }
        }

        let plan = Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
            .fetch(phi1(), vec![0, 1])
            .select_eq_const(2, -777)
            .build()
            .unwrap();
        for out in [
            execute(&plan, &idb, &cache).unwrap(),
            reference::execute(&plan, &idb, &cache).unwrap(),
        ] {
            assert!(out.tuples.is_empty());
            assert_eq!(out.stats.fetched_tuples, 2, "both fetched movies count");
            assert_eq!(out.stats.fetch_calls, 1);
        }
    }

    /// σ directly over a view leaf fuses into one extent-filtering
    /// operator (no intermediate scan), with unchanged semantics and the
    /// pinned view-read accounting.
    #[test]
    fn select_over_view_fuses_into_view_filter() {
        let (idb, cache) = setup();
        let plan = Plan::view("V1", 1).select_eq_const(0, 10).build().unwrap();
        let pipeline = Pipeline::compile(&plan, &idb, &cache).unwrap();
        let text = pipeline.describe();
        assert!(text.contains("view-filter V1"), "{text}");
        assert!(!text.contains("view-scan"), "{text}");
        assert_eq!(pipeline.len(), 1, "one fused operator");
        let out = pipeline.execute(&idb, &ExecOptions::serial()).unwrap();
        let interpreted = reference::execute(&plan, &idb, &cache).unwrap();
        assert_eq!(out, interpreted);
        assert_eq!(out.tuples, vec![tuple![10]]);
        // A rename in between blocks the fusion (matching the interpreter's
        // node-by-node evaluation structure).
        let unfused = Plan::view("V1", 1)
            .rename()
            .select_eq_const(0, 10)
            .build()
            .unwrap();
        let pipeline = Pipeline::compile(&unfused, &idb, &cache).unwrap();
        assert!(pipeline.describe().contains("view-scan V1"));
        assert_eq!(
            pipeline.execute(&idb, &ExecOptions::serial()).unwrap(),
            interpreted
        );
    }

    #[test]
    fn fetch_deduplicates_keys() {
        let (idb, cache) = setup();
        // Two identical keys in the input: the fetch must count the probe once.
        let plan = Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
            .union(Plan::constant(vec![
                Value::str("Universal"),
                Value::str("2014"),
            ]))
            .fetch(phi1(), vec![0, 1])
            .build()
            .unwrap();
        let out = execute(&plan, &idb, &cache).unwrap();
        assert_eq!(out.stats.fetch_calls, 1);
        assert_eq!(out.tuples.len(), 2);
        assert_eq!(out, reference::execute(&plan, &idb, &cache).unwrap());
    }

    #[test]
    fn missing_view_and_foreign_constraint_error() {
        let (idb, cache) = setup();
        let plan = Plan::view("NoSuchView", 1).build().unwrap();
        assert!(matches!(
            execute(&plan, &idb, &cache),
            Err(PlanError::UnknownView(_))
        ));
        assert!(matches!(
            reference::execute(&plan, &idb, &cache),
            Err(PlanError::UnknownView(_))
        ));

        let foreign = AccessConstraint::new("like", &["pid"], &["id"], 5000).unwrap();
        let plan = Plan::constant(vec![1])
            .fetch(foreign, vec![0])
            .build()
            .unwrap();
        assert!(matches!(
            execute(&plan, &idb, &cache),
            Err(PlanError::ConstraintNotInSchema(_))
        ));
        assert!(matches!(
            reference::execute(&plan, &idb, &cache),
            Err(PlanError::ConstraintNotInSchema(_))
        ));
    }

    #[test]
    fn relational_operators_behave_setwise() {
        let (idb, cache) = setup();
        let a = Plan::constant(vec![1]).union(Plan::constant(vec![2]));
        let b = Plan::constant(vec![2]).union(Plan::constant(vec![3]));
        let diff = a.clone().difference(b.clone()).build().unwrap();
        assert_eq!(
            execute(&diff, &idb, &cache).unwrap().tuples,
            vec![tuple![1]]
        );
        let union = a.clone().union(b.clone()).build().unwrap();
        assert_eq!(execute(&union, &idb, &cache).unwrap().tuples.len(), 3);
        let product = a.product(b).build().unwrap();
        assert_eq!(execute(&product, &idb, &cache).unwrap().tuples.len(), 4);
        let renamed = Plan::constant(vec![7, 8])
            .rename()
            .project(vec![1])
            .build()
            .unwrap();
        assert_eq!(
            execute(&renamed, &idb, &cache).unwrap().tuples,
            vec![tuple![8]]
        );
        let selected = Plan::constant(vec![7, 7])
            .select_eq_cols(0, 1)
            .build()
            .unwrap();
        assert_eq!(execute(&selected, &idb, &cache).unwrap().tuples.len(), 1);
        let empty_select = Plan::constant(vec![7, 8])
            .select_eq_cols(0, 1)
            .build()
            .unwrap();
        assert!(execute(&empty_select, &idb, &cache)
            .unwrap()
            .tuples
            .is_empty());
    }

    #[test]
    fn nullary_plans_execute() {
        let (idb, cache) = setup();
        // The unit constant, a Boolean projection, and their difference.
        let unit = Plan::constant(Vec::<Value>::new()).build().unwrap();
        let out = execute(&unit, &idb, &cache).unwrap();
        assert_eq!(out.tuples, vec![Tuple::unit()]);
        assert_eq!(out, reference::execute(&unit, &idb, &cache).unwrap());

        let boolean = Plan::constant(vec![7]).project(vec![]).build().unwrap();
        let out = execute(&boolean, &idb, &cache).unwrap();
        assert_eq!(out.tuples, vec![Tuple::unit()]);

        let empty = Plan::constant(Vec::<Value>::new())
            .difference(Plan::constant(Vec::<Value>::new()))
            .build()
            .unwrap();
        let out = execute(&empty, &idb, &cache).unwrap();
        assert!(out.tuples.is_empty());
        assert_eq!(out, reference::execute(&empty, &idb, &cache).unwrap());

        let product = Plan::constant(Vec::<Value>::new())
            .product(Plan::constant(vec![1]))
            .build()
            .unwrap();
        let out = execute(&product, &idb, &cache).unwrap();
        assert_eq!(out.tuples, vec![tuple![1]]);

        // Scans and filters of extents that store no ids: nullary ones (one
        // holding the empty tuple, one not) and an empty unary one.  Rows
        // are counted from the extent, not from its ids.
        let mut views = cache.clone();
        let nullary = bqr_data::RelationSchema::new("B", &[]).unwrap();
        let unary = bqr_data::RelationSchema::new("E", &["a"]).unwrap();
        let holds = Relation::from_tuples(nullary.clone(), [Tuple::unit()]).unwrap();
        views.insert("B1", holds);
        views.insert("B0", Relation::empty(nullary));
        views.insert("E", Relation::empty(unary));
        for (view, arity, rows) in [("B1", 0, 1), ("B0", 0, 0), ("E", 1, 0)] {
            let conds = match arity {
                0 => vec![],
                _ => vec![SelectCondition::ColNeConst(0, Value::int(7))],
            };
            let scan = Plan::view(view, arity).build().unwrap();
            let filter = Plan::view(view, arity).select(conds).build().unwrap();
            for (plan, op) in [(scan, "view-scan"), (filter, "view-filter")] {
                let pipeline = Pipeline::compile(&plan, &idb, &views).unwrap();
                assert!(pipeline.describe().contains(op), "{}", pipeline.describe());
                let out = pipeline.execute(&idb, &ExecOptions::serial()).unwrap();
                assert_eq!(out.tuples.len(), rows, "{view} {op}");
                assert_eq!(out.stats.view_tuples, rows, "{view} {op}");
                assert_eq!(out, reference::execute(&plan, &idb, &views).unwrap());
            }
        }
    }

    #[test]
    fn fetch_on_absent_key_returns_empty() {
        let (idb, cache) = setup();
        let plan = Plan::constant(vec![Value::str("MGM"), Value::str("1950")])
            .fetch(phi1(), vec![0, 1])
            .build()
            .unwrap();
        let out = execute(&plan, &idb, &cache).unwrap();
        assert!(out.tuples.is_empty());
        assert_eq!(out.stats.fetch_calls, 1);
        assert_eq!(out.stats.fetched_tuples, 0);
        assert_eq!(out, reference::execute(&plan, &idb, &cache).unwrap());
    }

    #[test]
    fn view_arity_mismatch_detected_at_execution() {
        let (idb, cache) = setup();
        let plan = Plan::view("V1", 2).build().unwrap();
        assert!(matches!(
            execute(&plan, &idb, &cache),
            Err(PlanError::ArityMismatch { .. })
        ));
        assert!(matches!(
            reference::execute(&plan, &idb, &cache),
            Err(PlanError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn exec_options_constructors() {
        assert_eq!(ExecOptions::default(), ExecOptions::serial());
        let p = ExecOptions::parallel(4);
        assert!(p.parallel);
        assert!(!p.auto);
        assert_eq!(p.shards, 4);
        assert_eq!(ExecOptions::parallel(0).shards, 1, "shards clamp to ≥ 1");
        let a = ExecOptions::parallel_auto();
        assert!(a.parallel && a.auto);
    }

    /// The auto heuristic is a pure function of `(work_hint, max_workers)`:
    /// one worker per `PARALLEL_MIN_ROWS` of estimated work, clamped to the
    /// machine.  Deterministic by construction — pinned here so the chosen
    /// counts never drift silently.
    #[test]
    fn auto_worker_count_is_deterministic_in_the_work_hint() {
        let w = ExecOptions::auto_worker_count;
        assert_eq!(w(0, 8), 1);
        assert_eq!(w(4096, 8), 1);
        assert_eq!(w(8192, 8), 2);
        assert_eq!(w(3 * 4096 + 1, 8), 3, "floor of work / threshold");
        assert_eq!(w(1 << 20, 8), 8, "clamped to the machine");
        assert_eq!(w(1 << 20, 1), 1);
        assert_eq!(w(usize::MAX, 0), 1, "zero max still yields one worker");

        // Below the threshold no operator parallelises at all, auto or not.
        let auto = ExecOptions::parallel_auto();
        assert_eq!(auto.workers_for(100), 1);
        let fixed = ExecOptions::parallel(4);
        assert_eq!(fixed.workers_for(100), 1);
        assert_eq!(fixed.workers_for(1 << 20), 4, "fixed counts stay fixed");
        assert_eq!(ExecOptions::serial().workers_for(1 << 20), 1);
    }

    /// Sharded-parallel execution over an input large enough to cross the
    /// parallel threshold is bit-identical to serial execution.
    #[test]
    fn parallel_execution_is_deterministic_over_large_inputs() {
        let schema = DatabaseSchema::with_relations(&[("edge", &["src", "dst"])]).unwrap();
        let mut db = Database::empty(schema);
        for i in 0..3000i64 {
            db.insert("edge", tuple![i % 300, i]).unwrap();
        }
        let mut views = ViewSet::empty();
        views
            .add_cq("E", parse_cq("E(x, y) :- edge(x, y)").unwrap())
            .unwrap();
        let cache = views.materialize(&db).unwrap();
        let idb = IndexedDatabase::build(db, AccessSchema::empty()).unwrap();
        // E ⋈ E on dst = src: 3000 × fan-in join, well above the threshold.
        let plan = Plan::view("E", 2)
            .join_eq(Plan::view("E", 2), &[(1, 0)])
            .project(vec![0, 3])
            .build()
            .unwrap();
        let serial = execute(&plan, &idb, &cache).unwrap();
        assert_eq!(serial, reference::execute(&plan, &idb, &cache).unwrap());
        for shards in [2usize, 4, 8] {
            let parallel =
                execute_with(&plan, &idb, &cache, &ExecOptions::parallel(shards)).unwrap();
            assert_eq!(parallel, serial, "{shards} shards");
        }
        // Auto worker selection changes only the scheduling, never the answer.
        let auto = execute_with(&plan, &idb, &cache, &ExecOptions::parallel_auto()).unwrap();
        assert_eq!(auto, serial, "auto worker count");
    }
}
