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
//! union, difference), one per plan node — a rename compiles to nothing and
//! a σ-over-× join to one join operator — and evaluates them in dependency
//! order over columns of dense [`ValueId`]s:
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
//! # Operator loops
//!
//! Every operator is one loop over its whole input on the calling thread:
//! a bounded plan reads `|D_ξ|` tuples, a number set by the access schema
//! and the plan rather than by `|D|`, so no operator has enough rows to
//! batch or split.  Every [`CHECK_INTERVAL`] input rows the loop checks the
//! guard and charges the rows (and fetched tuples) it emitted since the
//! last charge, and it charges the rest at its end.  A σ condition is
//! evaluated by `IdCond::holds` and nothing else.  π and ∪ sort and dedup
//! their output, so every intermediate table is set-like, as the
//! interpreter's `BTreeSet`s are; a fetch dedups its keys across rows.
//! [`execute_with`] takes [`ExecOptions`], the runtime limits.
//!
//! The original tree-walking interpreter (`BTreeSet<Tuple>` at every node)
//! is retained verbatim as [`mod@reference`]: it is the oracle for the
//! differential tests and the baseline of the plan benchmarks.

use crate::error::PlanError;
use crate::guard::{Guard, GuardLimits, CHECK_INTERVAL};
use crate::node::{PlanNode, QueryPlan, SelectCondition};
use crate::Result;
use bqr_data::{
    AccessConstraint, FetchStats, IndexedDatabase, InternedAccessIndex, MaterializedViews,
    Relation, Tuple, ValueId,
};
use std::collections::{HashMap, HashSet};
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

/// Options controlling pipeline execution: its runtime limits.  They say
/// when an execution stops, never what a pipeline computes, so no cache
/// looks at them: every option set executes the one compiled shape of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecOptions {
    /// Runtime guardrails (deadline, intermediate-row budget, fetch cap).
    /// All disabled by default; see [`crate::guard`] for semantics.
    pub limits: GuardLimits,
}

impl ExecOptions {
    /// Set a wall-clock deadline (counted from when execution starts),
    /// rounded up to whole milliseconds: a non-zero deadline never becomes
    /// the 0 ms one that trips at the first check.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        let ms = deadline.as_nanos().div_ceil(1_000_000);
        self.limits.deadline_ms = Some(ms.try_into().unwrap_or(u64::MAX));
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

/// Execute a plan over `idb` (base data reachable only through constraint
/// indices) and `views` (cached extents), with no limits.
pub fn execute(
    plan: &QueryPlan,
    idb: &IndexedDatabase,
    views: &MaterializedViews,
) -> Result<ExecOutput> {
    execute_with(plan, idb, views, &ExecOptions::default())
}

/// [`execute`] under explicit [`ExecOptions`] (a deadline, a row budget).
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
    /// `fetch(X ∈ input, R, Y)` through the id-native constraint index;
    /// `constraint` is a slot of [`CompiledShape::constraints`], bound per
    /// execution to that constraint's index in the database executed on.
    Fetch {
        input: usize,
        constraint: usize,
        key_cols: Vec<usize>,
    },
    /// Projection onto columns, deduplicated.
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
    /// Set union: concatenation, deduplicated.
    Union { left: usize, right: usize },
    /// Set difference.
    Difference { left: usize, right: usize },
}

/// [`Op::ViewProbe`], the σ-over-× pattern with a view leaf as an operand:
/// every row of `input` probes the extent's own keyed index on the joined
/// view columns — a hash join's build side, kept across executions and
/// versions.  `pairs`, `residual` and the `left ++ right` output are as for
/// [`Op::HashJoin`]; the view is the left operand iff `view_left`.  The
/// key layout is a function of `pairs` alone, computed at compile time.
#[derive(Debug)]
struct ViewProbe {
    input: usize,
    extent: usize,
    pairs: Vec<(usize, usize)>,
    view_left: bool,
    residual: Vec<IdCond>,
    /// The probed index's key positions in the view: one per distinct
    /// joined view column, ascending, so every join on the same columns
    /// shares one index.
    positions: Vec<usize>,
    /// The input column each key position is read from.
    key_cols: Vec<usize>,
    /// Input column pairs that must agree, or the row has no match: a
    /// further input column equated with an already keyed view column,
    /// beside that key's input column.
    agree: Vec<(usize, usize)>,
}

impl ViewProbe {
    fn new(
        input: usize,
        extent: usize,
        pairs: Vec<(usize, usize)>,
        view_left: bool,
        residual: Vec<IdCond>,
    ) -> Self {
        let mut keys: Vec<(usize, usize)> = Vec::new();
        let mut agree = Vec::new();
        for &(l, r) in &pairs {
            let (v, c) = if view_left { (l, r) } else { (r, l) };
            match keys.iter().find(|k| k.0 == v) {
                Some(&(_, first)) => agree.push((first, c)),
                None => keys.push((v, c)),
            }
        }
        keys.sort_unstable();
        let (positions, key_cols) = keys.into_iter().unzip();
        ViewProbe {
            input,
            extent,
            pairs,
            view_left,
            residual,
            positions,
            key_cols,
            agree,
        }
    }
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
    /// `atom_order()`.
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
    /// metrics exactly once per execution.  The guard carries the limits, so
    /// `_options` is unused; it is kept only because `benchmark/` passes it,
    /// and the next `[benchmark]` PR drops it.
    pub fn execute_guarded(
        &self,
        idb: &IndexedDatabase,
        _options: &ExecOptions,
        guard: &Guard,
    ) -> Result<ExecOutput> {
        let extents: Vec<&Relation> = self.extents.iter().collect();
        self.shape
            .execute_guarded(idb, guard, &self.consts, &extents)
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
    /// `extents` to its extent slots.  Another number of constants than
    /// slots is a [`PlanError::ArityMismatch`] (slots, constants).
    /// Guardrail trips are recorded in the guard's metrics exactly once per
    /// execution.
    pub(crate) fn execute_guarded(
        &self,
        idb: &IndexedDatabase,
        guard: &Guard,
        consts: &[ValueId],
        extents: &[&Relation],
    ) -> Result<ExecOutput> {
        if consts.len() != self.slots {
            return Err(PlanError::ArityMismatch {
                left: self.slots,
                right: consts.len(),
            });
        }
        let result = self
            .bind(idb, extents)
            .and_then(|bound| self.run(guard, consts, &bound));
        if let Err(PlanError::Exec(e)) = &result {
            guard.record_trip(e);
        }
        result
    }

    fn run(&self, guard: &Guard, consts: &[ValueId], bound: &Bound) -> Result<ExecOutput> {
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
                Op::Fetch {
                    input,
                    constraint,
                    key_cols,
                } => eval_fetch(
                    &tables[*input],
                    bound.indexes[*constraint],
                    key_cols,
                    &mut stats,
                    guard,
                )?,
                Op::Project { input, cols } => eval_project(&tables[*input], cols, guard)?,
                Op::Select { input, conds } => eval_select(&tables[*input], conds, consts, guard)?,
                Op::ViewProbe(probe) => eval_view_probe(
                    probe,
                    &tables[probe.input],
                    bound.extents[probe.extent],
                    consts,
                    &mut stats,
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
                    guard,
                )?,
                Op::Product { left, right } => {
                    eval_product(&tables[*left], &tables[*right], guard)?
                }
                Op::Union { left, right } => eval_union(&tables[*left], &tables[*right], guard)?,
                Op::Difference { left, right } => {
                    eval_difference(&tables[*left], &tables[*right], guard)?
                }
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
                Op::Const { .. } | Op::ViewScan { .. } => {}
                Op::Fetch { input, .. }
                | Op::Project { input, .. }
                | Op::Select { input, .. }
                | Op::ViewProbe(ViewProbe { input, .. }) => mark(*input),
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
            PlanNode::Project { input, columns } => Op::Project {
                input: self.compile_node(input),
                cols: columns.clone(),
            },
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
                            Some((name, arity)) => {
                                let input = self.compile_node(other);
                                let extent = self.extent_slot(name, arity);
                                let probe = ViewProbe::new(input, extent, pairs, view_left, conds);
                                Op::ViewProbe(probe)
                            }
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
                Op::Select {
                    input: self.compile_node(input),
                    conds,
                }
            }
            PlanNode::Rename { input } => return self.compile_node(input),
            PlanNode::Product(a, b) => Op::Product {
                left: self.compile_node(a),
                right: self.compile_node(b),
            },
            PlanNode::Union(a, b) => Op::Union {
                left: self.compile_node(a),
                right: self.compile_node(b),
            },
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

/// An operator loop's guard cadence: at every [`CHECK_INTERVAL`]-th input
/// row a check and a charge of the output rows emitted since the last
/// charge, and at the end ([`Meter::charge`]) a charge of the rest.
struct Meter<'g> {
    guard: &'g Guard,
    /// The output's arity, at least 1: a nullary output has no ids to count.
    width: usize,
    /// The output ids charged so far.
    charged: usize,
}

impl<'g> Meter<'g> {
    fn new(guard: &'g Guard, arity: usize) -> Self {
        Meter {
            guard,
            width: arity.max(1),
            charged: 0,
        }
    }

    /// At input row `i`, with `out` the operator's output so far.
    fn tick(&mut self, i: usize, out: &[ValueId]) -> Result<()> {
        if i.is_multiple_of(CHECK_INTERVAL) {
            self.guard.check()?;
            self.charge(out)?;
        }
        Ok(())
    }

    /// Charge the rows of `out` not charged yet.
    fn charge(&mut self, out: &[ValueId]) -> Result<()> {
        self.guard
            .charge_rows((out.len() - self.charged) / self.width)?;
        self.charged = out.len();
        Ok(())
    }
}

/// `fetch(X ∈ input, R, Y)` through `index`, the id-native index this
/// execution bound the constraint to.  Each distinct `X`-value is probed,
/// and counted, once — at its first row, as the interpreter does; a
/// single-column key is deduplicated through a bare-id set.
fn eval_fetch(
    input: &IdTable,
    index: &InternedAccessIndex,
    key_cols: &[usize],
    stats: &mut FetchStats,
    guard: &Guard,
) -> Result<IdTable> {
    let arity = index.arity();
    let mut meter = Meter::new(guard, arity);
    let mut charged = stats.fetched_tuples;
    let (mut single, mut seen) = (HashSet::new(), HashSet::new());
    let (mut key, mut data) = (Vec::with_capacity(key_cols.len()), Vec::new());
    for i in 0..input.rows {
        if i.is_multiple_of(CHECK_INTERVAL) {
            // The runtime re-check of the paper's bound, on the tuples
            // actually pulled out of base data.
            guard.charge_fetched(stats.fetched_tuples - charged)?;
            charged = stats.fetched_tuples;
        }
        meter.tick(i, &data)?;
        let row = input.row(i);
        key.clear();
        key.extend(key_cols.iter().map(|&c| row[c]));
        let fresh = match key[..] {
            [id] => single.insert(id),
            _ => !seen.contains(&key) && seen.insert(key.clone()),
        };
        if fresh {
            let rows = index.probe(&key);
            stats.record_fetch(rows.len() / arity);
            data.extend_from_slice(rows);
        }
    }
    guard.charge_fetched(stats.fetched_tuples - charged)?;
    meter.charge(&data)?;
    Ok(IdTable::from_data(arity, 0, data))
}

/// π onto `cols`, deduplicated: charged as a projection of every row, then
/// as the dedup's survivors.
fn eval_project(input: &IdTable, cols: &[usize], guard: &Guard) -> Result<IdTable> {
    let arity = cols.len();
    if arity == 0 {
        guard.charge_rows(input.rows)?;
        return Ok(IdTable::from_data(0, input.rows.min(1), Vec::new()));
    }
    let mut meter = Meter::new(guard, arity);
    let mut data = Vec::with_capacity(input.rows * arity);
    for (i, row) in input.data.chunks_exact(input.arity).enumerate() {
        meter.tick(i, &data)?;
        data.extend(cols.iter().map(|&c| row[c]));
    }
    meter.charge(&data)?;
    dedup(data, arity, guard)
}

/// A relation's stored id rows, copied flat and row-major.
fn id_rows(relation: &Relation) -> Vec<ValueId> {
    let mut data = Vec::with_capacity(relation.len() * relation.schema().arity());
    relation
        .id_chunks()
        .for_each(|chunk| data.extend_from_slice(chunk));
    data
}

/// σ: the rows of `input` on which every condition holds.
fn eval_select(
    input: &IdTable,
    conds: &[IdCond],
    consts: &[ValueId],
    guard: &Guard,
) -> Result<IdTable> {
    if input.arity == 0 {
        // Conditions reference columns, so a nullary select has none and
        // passes everything through.
        guard.charge_rows(input.rows)?;
        return Ok(IdTable::from_data(0, input.rows, Vec::new()));
    }
    let mut meter = Meter::new(guard, input.arity);
    let mut data = Vec::new();
    for (i, row) in input.data.chunks_exact(input.arity).enumerate() {
        meter.tick(i, &data)?;
        if conds.iter().all(|c| c.holds(row, consts)) {
            data.extend_from_slice(row);
        }
    }
    meter.charge(&data)?;
    Ok(IdTable::from_data(input.arity, 0, data))
}

/// The probe phase of an equi-join, whatever holds the build side: `lookup`
/// yields the build rows matching one row of `probe` (it is lent a key
/// buffer) and a joined row is `left ++ right` whichever side probes.
/// Returns the table and the matches looked up, before the residuals.
fn probe_phase<'a, M: Iterator<Item = &'a [ValueId]>>(
    probe: &IdTable,
    (build_arity, probe_left): (usize, bool),
    (residual, consts): (&[IdCond], &[ValueId]),
    guard: &Guard,
    lookup: impl Fn(&[ValueId], &mut Vec<ValueId>) -> M,
) -> Result<(IdTable, usize)> {
    let out_arity = probe.arity + build_arity;
    let mut meter = Meter::new(guard, out_arity);
    let (mut data, mut matches) = (Vec::new(), 0);
    let mut key: Vec<ValueId> = Vec::new();
    for (i, row) in probe.data.chunks_exact(probe.arity).enumerate() {
        meter.tick(i, &data)?;
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
    meter.charge(&data)?;
    Ok((IdTable::from_data(out_arity, 0, data), matches))
}

/// `input ⋈ extent` without reading the extent: a probe phase over the build
/// side the extent already holds; the rows it returns are the tuples read.
fn eval_view_probe(
    probe: &ViewProbe,
    input: &IdTable,
    extent: &Relation,
    consts: &[ValueId],
    stats: &mut FetchStats,
    guard: &Guard,
) -> Result<IdTable> {
    let view_arity = extent.schema().arity();
    let index = extent.keyed_index(&probe.positions)?;
    let sides = (view_arity, !probe.view_left);
    let conds = (&probe.residual[..], consts);
    let lookup = |row: &[ValueId], key: &mut Vec<ValueId>| {
        let mut group: &[ValueId] = &[];
        if probe.agree.iter().all(|&(a, b)| row[a] == row[b]) {
            key.clear();
            key.extend(probe.key_cols.iter().map(|&c| row[c]));
            group = index.probe(key);
        }
        group.chunks_exact(view_arity)
    };
    let (table, read) = probe_phase(input, sides, conds, guard, lookup)?;
    stats.record_view_read(read);
    Ok(table)
}

/// The build side of a hash join: join key → build-row indices.  A
/// single-column key, the key of every hash join of the CDR templates, is
/// a bare id; only a wider key pays for a key vector per row.
enum JoinTable {
    Single(HashMap<ValueId, Vec<u32>>),
    Multi(HashMap<Vec<ValueId>, Vec<u32>>),
}

impl JoinTable {
    fn build(table: &IdTable, key_cols: &[usize], guard: &Guard) -> Result<JoinTable> {
        let (mut single, mut multi) = (HashMap::new(), HashMap::new());
        for i in 0..table.rows {
            guard.checkpoint(i)?;
            let row = table.row(i);
            match *key_cols {
                [col] => single.entry(row[col]).or_insert_with(Vec::new),
                _ => multi
                    .entry(key_cols.iter().map(|&c| row[c]).collect())
                    .or_insert_with(Vec::new),
            }
            .push(i as u32);
        }
        Ok(match *key_cols {
            [_] => JoinTable::Single(single),
            _ => JoinTable::Multi(multi),
        })
    }

    /// The build rows whose key is `row`'s at `cols`; a multi-column key is
    /// gathered into `key`.
    fn get(&self, row: &[ValueId], cols: &[usize], key: &mut Vec<ValueId>) -> &[u32] {
        let rows = match self {
            JoinTable::Single(map) => map.get(&row[cols[0]]),
            JoinTable::Multi(map) => {
                key.clear();
                key.extend(cols.iter().map(|&c| row[c]));
                map.get(key)
            }
        };
        rows.map_or(&[], Vec::as_slice)
    }
}

fn eval_hash_join(
    left: &IdTable,
    right: &IdTable,
    pairs: &[(usize, usize)],
    residual: &[IdCond],
    consts: &[ValueId],
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
    let table = JoinTable::build(build, &build_cols, guard)?;
    let sides = (build.arity, !build_left);
    let lookup = |row: &[ValueId], key: &mut Vec<ValueId>| {
        let matches = table.get(row, &probe_cols, key).iter();
        matches.map(|&b| build.row(b as usize))
    };
    let conds = (residual, consts);
    Ok(probe_phase(probe, sides, conds, guard, lookup)?.0)
}

fn eval_product(left: &IdTable, right: &IdTable, guard: &Guard) -> Result<IdTable> {
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
    // Cap the pre-allocation: an astronomically large product under a
    // deadline (but no row budget) must not OOM on `with_capacity` before
    // the first checkpoint fires.
    const PREALLOC_CAP: usize = 1 << 22;
    let mut data = Vec::with_capacity(out_rows.saturating_mul(out_arity).min(PREALLOC_CAP));
    let mut emitted = 0usize;
    for i in 0..left.rows {
        let l_row = left.row(i);
        for j in 0..right.rows {
            guard.checkpoint(emitted)?;
            emitted += 1;
            data.extend_from_slice(l_row);
            data.extend_from_slice(right.row(j));
        }
    }
    Ok(IdTable::from_data(out_arity, out_rows, data))
}

/// ∪, deduplicated: charged as the concatenation of both inputs, then as
/// the dedup's survivors.
fn eval_union(left: &IdTable, right: &IdTable, guard: &Guard) -> Result<IdTable> {
    let rows = left.rows + right.rows;
    guard.charge_rows(rows)?;
    if left.arity == 0 {
        return Ok(IdTable::from_data(0, rows.min(1), Vec::new()));
    }
    let mut data = Vec::with_capacity(left.data.len() + right.data.len());
    data.extend_from_slice(&left.data);
    data.extend_from_slice(&right.data);
    dedup(data, left.arity, guard)
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
    let mut meter = Meter::new(guard, left.arity);
    let mut data = Vec::new();
    for (i, row) in left.data.chunks_exact(left.arity).enumerate() {
        meter.tick(i, &data)?;
        if !exclude.contains(row) {
            data.extend_from_slice(row);
        }
    }
    meter.charge(&data)?;
    Ok(IdTable::from_data(left.arity, 0, data))
}

/// Sort and dedup the rows of `data`, `arity ≥ 1` ids each (lexicographic
/// on ids), charging the rows that remain.  Intermediate order is only an
/// engine-internal detail — the root materialisation re-sorts by `Value` —
/// but it is deterministic.  Arity-1 rows, as `Q_ξ`'s are, sort as bare
/// ids, with no per-row slice.
fn dedup(mut data: Vec<ValueId>, arity: usize, guard: &Guard) -> Result<IdTable> {
    if arity == 1 {
        data.sort_unstable();
        data.dedup();
    } else {
        data = {
            let mut rows: Vec<&[ValueId]> = data.chunks_exact(arity).collect();
            rows.sort_unstable();
            rows.dedup();
            rows.concat()
        };
    }
    guard.charge_rows(data.len() / arity)?;
    Ok(IdTable::from_data(arity, 0, data))
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
    use bqr_data::{FetchStats, IndexedDatabase, MaterializedViews, Tuple, Value};
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
    use bqr_data::{
        tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema, RelationSchema, Value,
    };

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

        // V1(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, z1, z2),
        // like(xp, mid, 'movie'): the NASA people 1 and 2 like movies 10, 12.
        let v1 = RelationSchema::new("V1", &["c0"]).unwrap();
        let mut cache = MaterializedViews::empty();
        cache.insert(
            "V1",
            Relation::from_tuples(v1, vec![tuple![10], tuple![12]]).unwrap(),
        );
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

    /// σ over a view leaf is a selection over the leaf's scan, one
    /// operator per plan node, with the pinned view-read accounting; the
    /// scan charges the extent rows it copies, so a row budget between the
    /// survivors and the extent's size trips.
    #[test]
    fn select_over_view_scans_then_selects() {
        let (idb, cache) = setup();
        let plan = Plan::view("V1", 1).select_eq_const(0, 10).build().unwrap();
        let pipeline = Pipeline::compile(&plan, &idb, &cache).unwrap();
        let text = pipeline.describe();
        assert!(text.contains("%0 = view-scan V1 [2 rows]"), "{text}");
        assert!(text.contains("%1 = σ[#0 = id:"), "{text}");
        assert_eq!(pipeline.len(), plan.size(), "one operator per plan node");
        let out = pipeline.execute(&idb, &ExecOptions::default()).unwrap();
        assert_eq!(out, reference::execute(&plan, &idb, &cache).unwrap());
        assert_eq!(out.tuples, vec![tuple![10]]);
        assert_eq!(out.stats.view_tuples, 2, "the whole extent is read");

        let survivors = ExecOptions::default().with_row_budget(1);
        assert!(matches!(
            pipeline.execute(&idb, &survivors),
            Err(PlanError::Exec(crate::ExecError::MemoryBudgetExceeded {
                budget_rows: 1
            }))
        ));
        let extent_and_survivors = ExecOptions::default().with_row_budget(3);
        assert_eq!(pipeline.execute(&idb, &extent_and_survivors).unwrap(), out);
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
            for (plan, op) in [(scan, "view-scan"), (filter, "σ[")] {
                let pipeline = Pipeline::compile(&plan, &idb, &views).unwrap();
                assert!(pipeline.describe().contains(op), "{}", pipeline.describe());
                let out = pipeline.execute(&idb, &ExecOptions::default()).unwrap();
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

    /// The default runs unlimited; each builder sets its one limit, and a
    /// sub-millisecond deadline rounds up to a whole millisecond rather
    /// than down to the 0 ms one that trips at the first check.
    #[test]
    fn exec_options_constructors() {
        assert_eq!(ExecOptions::default().limits, GuardLimits::none());
        let limits = ExecOptions::default()
            .with_deadline(Duration::from_millis(40))
            .with_row_budget(7)
            .with_fetch_budget(9)
            .limits;
        assert_eq!(limits.deadline_ms, Some(40));
        assert_eq!(limits.max_intermediate_rows, Some(7));
        assert_eq!(limits.max_fetched_tuples, Some(9));
        let ms = |d: Duration| ExecOptions::default().with_deadline(d).limits.deadline_ms;
        assert_eq!(ms(Duration::from_micros(500)), Some(1));
        assert_eq!(ms(Duration::from_micros(1_001)), Some(2));
        assert_eq!(ms(Duration::ZERO), Some(0));
        assert_eq!(ms(Duration::MAX), Some(u64::MAX), "saturates");
        assert_eq!(
            ExecOptions::default()
                .with_deadline_ms(3)
                .limits
                .deadline_ms,
            Some(3)
        );
    }

    fn ids(vals: &[i64]) -> Vec<ValueId> {
        vals.iter()
            .map(|&v| ValueId::intern(&Value::int(v)))
            .collect()
    }

    #[test]
    fn join_table_single_key_specialisation_agrees_with_multi() {
        let guard = Guard::new(&GuardLimits::none());
        let table = IdTable::from_data(2, 0, ids(&[1, 10, 2, 20, 1, 30]));
        let single = JoinTable::build(&table, &[0], &guard).unwrap();
        assert!(matches!(&single, JoinTable::Single(map) if map.len() == 2));
        let multi = JoinTable::build(&table, &[0, 1], &guard).unwrap();
        assert!(matches!(&multi, JoinTable::Multi(map) if map.len() == 3));
        let mut key = Vec::new();
        let mut get = |table: &JoinTable, row: &[i64], cols: &[usize]| {
            table.get(&ids(row), cols, &mut key).to_vec()
        };
        assert_eq!(
            get(&single, &[1, 0], &[0]),
            [0, 2],
            "build rows in input order"
        );
        assert_eq!(get(&single, &[0, 2], &[1]), [1]);
        assert_eq!(get(&single, &[3], &[0]), [] as [u32; 0]);
        assert_eq!(get(&multi, &[1, 30], &[0, 1]), [2]);
        assert_eq!(get(&multi, &[10, 1], &[1, 0]), [0]);
        assert_eq!(get(&multi, &[1, 20], &[0, 1]), [] as [u32; 0]);
    }

    #[test]
    fn dedup_arity_one_fast_path_matches_slice_path() {
        let guard = Guard::new(&GuardLimits::none());
        let vals: Vec<i64> = (0..5000).map(|i| i % 97).collect();
        let narrow = dedup(ids(&vals), 1, &guard).unwrap();
        // The same ids as rows of arity 2 (each id beside itself) take the
        // slice path and must come out in the same order.
        let pairs: Vec<i64> = vals.iter().flat_map(|&v| [v, v]).collect();
        let wide = dedup(ids(&pairs), 2, &guard).unwrap();
        assert_eq!((narrow.rows, wide.rows), (97, 97));
        let first: Vec<ValueId> = (0..97).map(|i| wide.row(i)[0]).collect();
        assert_eq!(narrow.data, first);
        assert_eq!(
            dedup(ids(&[3, 4, 1, 2, 3, 4, 1, 2]), 2, &guard)
                .unwrap()
                .rows,
            2
        );
        assert_eq!(dedup(Vec::new(), 2, &guard).unwrap().rows, 0);
    }

    /// An input that spans several guard intervals (3 000 rows, a fan-in
    /// join well past `CHECK_INTERVAL`) executes to the reference's answer
    /// and `FetchStats`.
    #[test]
    fn multi_batch_execution_matches_the_reference() {
        let schema = DatabaseSchema::with_relations(&[("edge", &["src", "dst"])]).unwrap();
        let mut db = Database::empty(schema);
        for i in 0..3000i64 {
            db.insert("edge", tuple![i % 300, i]).unwrap();
        }
        // E(x, y) :- edge(x, y).
        let mut cache = MaterializedViews::empty();
        let edges = db.relation("edge").unwrap().iter().map(|t| t.to_tuple());
        let e = RelationSchema::new("E", &["c0", "c1"]).unwrap();
        cache.insert("E", Relation::from_tuples(e, edges).unwrap());
        let idb = IndexedDatabase::build(db, AccessSchema::empty()).unwrap();
        // E ⋈ E on dst = src: 3000 probe rows, three guard intervals.
        let plan = Plan::view("E", 2)
            .join_eq(Plan::view("E", 2), &[(1, 0)])
            .project(vec![0, 3])
            .build()
            .unwrap();
        let out = execute(&plan, &idb, &cache).unwrap();
        assert!(out.stats.view_tuples > CHECK_INTERVAL, "{:?}", out.stats);
        assert_eq!(out, reference::execute(&plan, &idb, &cache).unwrap());
    }
}
