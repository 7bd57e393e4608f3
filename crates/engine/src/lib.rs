//! # bqr-engine — the unified serving facade
//!
//! The paper's end-to-end story — given views `V`, an access schema `A` and
//! a query `Q`, decide boundedness, construct a topped/exact rewriting, and
//! evaluate it over a bounded fraction of `D` — used to take five crates and
//! six hand-threaded types.  This crate folds it into one object:
//!
//! * [`Engine`] — owns the configuration ([`Engine::builder`]: views,
//!   access schema, bound `M`, budget, planner, exec options, pipeline-cache
//!   capacity), the data ([`Engine::attach`] / [`Engine::mutate`]), and the
//!   request lifecycle;
//! * [`Engine::analyze`] — accepts a [`bqr_query::ConjunctiveQuery`], a
//!   [`bqr_query::FoQuery`], a [`bqr_query::UnionQuery`], or a **string** in
//!   the parser syntax, and returns an [`Analysis`]: the boundedness
//!   decision, the constructed plan, and `explain()` built on
//!   [`bqr_plan::Pipeline::describe`];
//! * [`Engine::prepare`] — registers a **named prepared statement** backed
//!   by the shape-keyed [`bqr_plan::PipelineCache`], with
//!   [`Engine::cache_stats`] surfacing hit/miss/eviction counters;
//! * **query shapes** — the checker runs once per *shape* of CQ/UCQ (the
//!   query as written, minus the constants no view definition uses), and a
//!   pipeline compiles once per plan shape: statements and ad-hoc texts
//!   that ask one question about different constants share both, so
//!   [`Session::query`] on a seen shape is a parse and an execution;
//! * [`Engine::session`] — an **epoch-pinned [`Session`]** whose reads are
//!   snapshot-consistent across any number of `execute` calls, even while
//!   concurrent mutations bump relation epochs;
//! * [`Error`] — the one error type, wrapping every layer's error with the
//!   query / statement the request was about.
//!
//! On top of the static contract, executions run under **runtime
//! guardrails** ([`bqr_plan::guard`]): per-request deadlines, cancellation
//! tokens, intermediate-row budgets and fetch caps set on
//! [`bqr_plan::ExecOptions`] (or engine-wide via
//! [`EngineBuilder::guard_limits`]), with trips surfacing as typed
//! [`Error::Execution`] values and counted in [`Engine::guard_stats`].
//! Mutate-closure panics are contained ([`Error::MutationPanicked`]) and
//! every engine lock recovers from poisoning, so a panicking request can
//! never wedge the engine.
//!
//! ```
//! use bqr_engine::Engine;
//! use bqr_data::{tuple, AccessConstraint, AccessSchema, Database, DatabaseSchema};
//!
//! # fn main() -> bqr_engine::Result<()> {
//! let schema = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])])
//!     .map_err(bqr_engine::Error::Data)?;
//! let engine = Engine::builder()
//!     .schema(schema.clone())
//!     .access(AccessSchema::new(vec![
//!         AccessConstraint::new("rating", &["mid"], &["rank"], 1).unwrap(),
//!     ]))
//!     .bound(8)
//!     .build()?;
//!
//! let mut db = Database::empty(schema);
//! db.insert("rating", tuple![42, 5]).map_err(bqr_engine::Error::Data)?;
//! engine.attach(db)?;
//!
//! let analysis = engine.analyze("Q(r) :- rating(42, r)")?;
//! assert!(analysis.bounded());
//!
//! engine.prepare("rank_of_42", "Q(r) :- rating(42, r)")?;
//! let session = engine.session();
//! assert_eq!(session.execute("rank_of_42")?.tuples, vec![tuple![5]]);
//! # Ok(())
//! # }
//! ```

// The serving path must degrade with typed errors, never unwind: unwrap is
// flagged crate-wide (tests opt back in locally).
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod analysis;
mod engine;
mod error;
mod session;
mod shape;

pub use analysis::Analysis;
pub use engine::{Engine, EngineBuilder, IntoQuery, MaintenanceMode};
pub use error::{Error, Result};
pub use session::{EvalOutput, PreparedStatement, Session};

#[cfg(test)]
mod tests;
