//! # bqr-plan — bounded query plans
//!
//! Query plans are the operational side of bounded rewriting (Section 2 of
//! the paper): a plan `ξ(V, R)` is a tree whose leaves are constants and
//! cached views, whose only access to the base data is the `fetch(X ∈ S, R,
//! Y)` operator backed by an access constraint, and whose internal nodes are
//! the relational operators `π, σ, ×, ∪, \, ρ`.
//!
//! The crate depends on `bqr-data` alone: executing a plan needs no query
//! language.  The analyses of a plan — the query `Q_ξ` it expresses and its
//! conformance to an access schema — are `bqr-core`'s.
//!
//! * [`PlanNode`] / [`QueryPlan`] — the tree representation, size measure,
//!   Fig.-1-style pretty printing, the CQ/UCQ/∃FO+/FO plan classification
//!   and a plan's [shape](QueryPlan::shape) (its structure, constants left
//!   out), the prepared-execution cache key;
//! * [`exec`] — executing a plan over an [`IndexedDatabase`](bqr_data::IndexedDatabase) plus
//!   materialised views, with [`FetchStats`](bqr_data::FetchStats) accounting of `|D_ξ|`: plans are
//!   compiled to a flat operator [`Pipeline`] over interned ids whose hot
//!   operators run as vectorised batch kernels (selection vectors, batched
//!   index probes, hash joins for the σ-over-× pattern) on the calling
//!   thread, under the limits of [`ExecOptions`]; the original tree-walking
//!   interpreter is retained as [`exec::reference`] for differential
//!   testing;
//! * [`prepared`] — the prepared-statement layer: a [`PipelineCache`] keyed
//!   by plan shape alone — a compiled pipeline is plan syntax, so plans that
//!   differ only in constants, data versions, option sets and access schemas
//!   listing the same constraints all share one — and the [`PreparedPlan`]
//!   handle that binds a plan's
//!   constants and, per execution, the extents and indexes it is run on;
//! * [`guard`] — runtime guardrails: cooperative deadlines, cancellation
//!   tokens, intermediate-row (memory) budgets and fetched-tuple caps
//!   checked inside the hot operator loops, surfacing as typed
//!   [`ExecError`]s.

// The serving path must degrade with typed errors, never unwind: unwrap is
// flagged crate-wide (tests opt back in locally).
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod builder;
pub mod error;
pub mod exec;
pub mod guard;
mod kernel;
pub mod node;
pub mod prepared;

pub use error::{ExecError, PlanError};
pub use exec::{execute, execute_with, ExecOptions, ExecOutput, Pipeline};
pub use guard::{panic_message, CancellationToken, Guard, GuardLimits, GuardMetrics, GuardStats};
pub use node::{PlanLanguage, PlanNode, QueryPlan, SelectCondition};
pub use prepared::{CacheStats, PipelineCache, PreparedPlan, PreparedShape};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, PlanError>;
