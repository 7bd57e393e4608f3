//! # bqr-query — query languages and static analyses under access schemas
//!
//! This crate implements the query-language substrate of the reproduction of
//! *Bounded Query Rewriting Using Views* (Cao, Fan, Geerts, Lu):
//!
//! * [`Term`], [`Atom`] — atomic building blocks;
//! * [`ConjunctiveQuery`] (CQ / SPC), [`UnionQuery`] (UCQ / SPCU) and the full
//!   first-order AST [`Fo`] / [`FoQuery`] (relational algebra / FO), plus the
//!   classification into the languages studied by the paper
//!   ([`QueryLanguage`]);
//! * [`ViewSet`] — named, L-definable views, materialised into and
//!   maintained as the extents `bqr-data` holds ([`MaterializedViews`],
//!   re-exported here);
//! * tableau / canonical-instance machinery ([`canonical`]),
//!   homomorphisms ([`hom`]) and classical containment ([`containment`]);
//! * acyclicity via GYO reduction ([`acyclic`]);
//! * the FD-chase ([`chase`]) used by the PTIME special cases;
//! * **element queries** ([`element`]) — the minimal `A`-satisfying
//!   specialisations of a CQ that drive the paper's decision procedures;
//! * covered variables `cov(Q, A)` ([`cover`]) and the bounded-output
//!   analysis `BOP` ([`bounded_output`], Theorem 3.4);
//! * `A`-containment / `A`-equivalence and satisfiability under an access
//!   schema ([`aequiv`], Lemma 3.2);
//! * naive evaluation of CQ / UCQ / FO queries over instances and cached
//!   views ([`eval`]) — the "commercial engine" baseline of the benchmarks;
//! * a small text [`parser`] for conjunctive queries, used by examples and
//!   tests.

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod acyclic;
pub mod aequiv;
pub mod atom;
pub mod bounded_output;
pub mod budget;
pub mod canonical;
pub mod chase;
pub mod containment;
pub mod cover;
pub mod cq;
pub mod element;
pub mod error;
pub mod eval;
pub mod fo;
pub mod hom;
pub mod maintain;
pub mod parser;
pub mod planner;
pub mod ucq;
pub mod views;

#[cfg(test)]
pub(crate) mod testutil;

pub use atom::{Atom, Term};
pub use bqr_data::MaterializedViews;
pub use budget::Budget;
pub use cq::ConjunctiveQuery;
pub use error::QueryError;
pub use fo::{Fo, FoQuery, QueryLanguage};
pub use planner::PlannerConfig;
pub use ucq::UnionQuery;
pub use views::{ViewDefinition, ViewSet};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, QueryError>;
