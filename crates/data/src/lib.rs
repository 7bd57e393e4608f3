//! # bqr-data — storage substrate for bounded query rewriting
//!
//! This crate provides the data layer used throughout the reproduction of
//! *Bounded Query Rewriting Using Views* (Cao, Fan, Geerts, Lu; PODS'16 /
//! TODS'18):
//!
//! * [`Value`], [`Tuple`] — the data model (a countably infinite domain `U`
//!   of constants, instantiated here with integers, strings and booleans) —
//!   and [`TupleRef`], a stored tuple read in place;
//! * [`RelationSchema`], [`DatabaseSchema`] — relational schemas `R = (R_1,
//!   ..., R_n)` with named attributes;
//! * [`Relation`], [`Database`] — set-semantics instances `D` of a schema,
//!   each relation storing its tuples as rows of interned ids in value
//!   order; a relation version also answers sorted-prefix ranges and owns its
//!   indexes — keyed ([`Relation::keyed_index`]) and access-constraint ones
//!   alike — which every write to it patches: the one route a write takes;
//! * [`MaterializedViews`] — the extents `V(D)` of a view set, one relation
//!   per view: what a plan's view leaves read and what `bqr-query`
//!   materialises and maintains;
//! * [`AccessConstraint`], [`AccessSchema`] — access constraints
//!   `R(X → Y, N)`: a cardinality bound combined with an index on `X` for
//!   `XY`;
//! * [`InternedAccessIndex`], [`IndexedDatabase`] — the one index type: the
//!   id-native index of each constraint of an access schema, held by its
//!   relation and supporting the `fetch` primitive of bounded query plans,
//!   and the structure keyed indexes and [`IndexCache`] use too;
//! * [`IndexCache`] — epoch-keyed memoisation of per-access-pattern indexes
//!   and per-relation statistics, shared by the homomorphism engine and the
//!   evaluators in `bqr-query` (invalidated automatically on mutation via
//!   [`Relation::epoch`]);
//! * [`ValueId`] ([`intern`]) — dense `u32` value ids, minted when a value
//!   is first stored, over the process-global pool that holds the one copy
//!   of every value, so the join engines' hot loops never touch a [`Value`];
//! * [`DeltaLog`], [`RelationDelta`] ([`delta`]) — per-relation write sets
//!   captured during a mutation, the currency of `O(|Δ|)` view maintenance;
//! * [`FetchStats`] — I/O accounting: how many base tuples a plan fetched
//!   (`|D_ξ|` in the paper) versus how many a full scan would touch — and
//!   [`RelationStats`], the per-relation cardinality statistics consumed by
//!   the cost-based join planner in `bqr-query`;
//! * [`faults`] — a registry-activated failpoint facility (compiled to
//!   no-ops unless the `failpoints` cargo feature is on) whose injection
//!   sites thread through the whole serving stack for chaos testing.
//!
//! The crate is deliberately free of query-language concepts; those live in
//! `bqr-query` and `bqr-plan`.

#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod access;
pub mod database;
pub mod delta;
pub mod error;
pub mod faults;
pub mod index;
pub mod index_cache;
pub mod intern;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tuple;
pub mod value;
pub mod views;

pub use access::{AccessConstraint, AccessSchema, ConstraintViolation};
pub use database::{Database, DeltaCheckpoint};
pub use delta::{DeltaLog, RelationChange, RelationDelta};
pub use error::DataError;
pub use index::{IndexedDatabase, InternedAccessIndex};
pub use index_cache::IndexCache;
pub use intern::ValueId;
pub use relation::Relation;
pub use schema::{DatabaseSchema, RelationSchema};
pub use stats::{FetchStats, RelationStats};
pub use tuple::{Tuple, TupleRef};
pub use value::Value;
pub use views::MaterializedViews;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, DataError>;
