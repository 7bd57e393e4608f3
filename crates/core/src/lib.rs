//! # bqr-core — bounded query rewriting using views
//!
//! This crate is the reproduction of the primary contribution of *Bounded
//! Query Rewriting Using Views* (Cao, Fan, Geerts, Lu; PODS'16 / TODS'18):
//! deciding and constructing `M`-bounded rewritings of queries using a set of
//! views under an access schema.
//!
//! * [`problem`] — the `VBRP` problem statement (`R, M, A, Q, V`) and answers;
//! * [`to_query`] — the query `Q_ξ` a plan expresses (Section 2), by
//!   unfolding the plan into the calculus;
//! * [`conform`] — conformance of a plan to an access schema: every fetch is
//!   justified by a constraint and driven by a bounded input (Lemma 3.8);
//! * [`enumerate`] — candidate-plan enumeration up to size `M` (the search
//!   space of the exact procedures; worst-case exponential, budgeted);
//! * [`decide`] — the exact decision procedure for `VBRP(L)` and the
//!   maximum-plan algorithms `AlgMP` / `AlgACQ` of Theorem 4.2;
//! * [`fd`] — the PTIME special case when `A` consists of functional
//!   dependencies only (Corollary 4.4 / Proposition 4.5);
//! * [`topped`] — the **effective syntax**: topped queries and the PTIME
//!   bounded-plan generator (Theorem 5.1), in its constructive form;
//! * [`size_bounded`] — size-bounded FO queries, the effective syntax for
//!   bounded output (Theorem 5.2), and the bounded-output oracle;
//! * [`bounded_eval`] — bounded evaluability (the `V = ∅` baseline of
//!   [Fan et al. 2015], used by the experiments for comparison);
//! * [`cross`] — `L1`-to-`L2` bounded rewriting, `VBRP+` (Section 6).

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod bounded_eval;
pub mod conform;
pub mod cross;
pub mod decide;
pub mod enumerate;
pub mod error;
pub mod fd;
pub mod problem;
pub mod size_bounded;
pub mod to_query;
pub mod topped;

pub use conform::{check_conformance, Conformance};
pub use decide::{decide_vbrp, DecisionOutcome};
pub use error::CoreError;
pub use problem::{Query, RewritingSetting, VbrpInstance};
pub use size_bounded::BoundedOutputOracle;
pub use topped::{ToppedAnalysis, ToppedChecker};

/// Convenience result alias.  [`CoreError`] wraps the plan- and query-layer
/// errors (the plan-layer one wraps the data-layer error) and adds the
/// decision-layer outcome "could not decide".
pub type Result<T> = std::result::Result<T, CoreError>;
