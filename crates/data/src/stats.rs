//! I/O accounting for bounded plans, and cardinality statistics for the
//! cost-based join planner.
//!
//! The central quantitative claim of bounded rewriting is that a bounded plan
//! touches `|D_ξ|` base tuples where `|D_ξ|` depends only on the query and the
//! bounds `N` of the access schema — never on `|D|`.  [`FetchStats`] records
//! exactly the quantities needed to verify that claim experimentally:
//! tuples retrieved through constraint indices (`fetched_tuples`, the paper's
//! `|D_ξ|` as a bag), the number of `fetch` invocations, tuples read from
//! cached views (free of base-data I/O), and tuples a full scan would touch.
//!
//! [`RelationStats`] is the other half of this module: a relation version's
//! cardinality and per-position distinct-value counts, computed from its
//! stored rows once per epoch (memoised by [`crate::IndexCache`]) and
//! consumed by the join planner in `bqr-query::hom` to estimate per-atom
//! selectivity.

use crate::intern::ValueId;
use crate::relation::Relation;
use std::collections::HashSet;
use std::fmt;

/// Cardinality statistics of one relation version: total tuple count plus
/// the number of distinct values at every attribute position.  Computed
/// exactly (the relations the decision procedures index are small); on a
/// production ingest path the same shape would be fed by sketches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    tuples: usize,
    distinct: Vec<usize>,
}

impl RelationStats {
    /// Compute the statistics of `relation`'s stored id rows, read in place.
    pub fn of_rows(relation: &Relation) -> Self {
        let arity = relation.schema().arity();
        let mut seen: HashSet<ValueId> = HashSet::new();
        let distinct = (0..arity).map(|pos| {
            seen.clear();
            for chunk in relation.id_chunks() {
                seen.extend(chunk.iter().skip(pos).step_by(arity));
            }
            seen.len()
        });
        RelationStats {
            tuples: relation.len(),
            distinct: distinct.collect(),
        }
    }

    /// Number of tuples in the relation.
    pub fn tuples(&self) -> usize {
        self.tuples
    }

    /// Number of distinct values at attribute `position`.
    pub fn distinct(&self, position: usize) -> usize {
        self.distinct[position]
    }

    /// Estimated number of tuples matching an index probe on
    /// `bound_positions`, under the textbook uniformity-and-independence
    /// assumptions: `|R| / Π_p d_p`, with each `d_p` capped at `|R|` by
    /// construction.  An unbound probe (`bound_positions` empty) estimates
    /// the full scan, `|R|`.
    pub fn estimated_matches(&self, bound_positions: &[usize]) -> f64 {
        let mut est = self.tuples as f64;
        for &p in bound_positions {
            est /= self.distinct[p].max(1) as f64;
        }
        est
    }
}

/// Counters describing the data accessed while answering one query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Number of base tuples returned by `fetch` operations, counted as a bag
    /// (`|D_ξ|` in Section 2 of the paper).
    pub fetched_tuples: usize,
    /// Number of `fetch` invocations (index probes).
    pub fetch_calls: usize,
    /// Rows read from cached / materialised view extents: the whole extent
    /// by a scan or a filter of it, only the rows its probes return by a join
    /// that probes it.  These do not count as base-data I/O.
    pub view_tuples: usize,
    /// Base tuples scanned by operators that read a relation directly
    /// (only the *naive* baseline does this; bounded plans never do).
    pub scanned_tuples: usize,
}

impl FetchStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        FetchStats::default()
    }

    /// Total base-data tuples accessed (fetched + scanned).
    pub fn base_tuples_accessed(&self) -> usize {
        self.fetched_tuples + self.scanned_tuples
    }

    /// Record a fetch that returned `n` tuples.
    pub fn record_fetch(&mut self, n: usize) {
        self.fetch_calls += 1;
        self.fetched_tuples += n;
    }

    /// Record reading `n` tuples from a cached view.
    pub fn record_view_read(&mut self, n: usize) {
        self.view_tuples += n;
    }

    /// Record a full or partial scan of `n` base tuples.
    pub fn record_scan(&mut self, n: usize) {
        self.scanned_tuples += n;
    }

    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &FetchStats) {
        self.fetched_tuples += other.fetched_tuples;
        self.fetch_calls += other.fetch_calls;
        self.view_tuples += other.view_tuples;
        self.scanned_tuples += other.scanned_tuples;
    }
}

impl fmt::Display for FetchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fetched {} tuples in {} fetches, read {} view tuples, scanned {} base tuples",
            self.fetched_tuples, self.fetch_calls, self.view_tuples, self.scanned_tuples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates() {
        let mut s = FetchStats::new();
        s.record_fetch(10);
        s.record_fetch(0);
        s.record_view_read(500);
        s.record_scan(1000);
        assert_eq!(s.fetched_tuples, 10);
        assert_eq!(s.fetch_calls, 2);
        assert_eq!(s.view_tuples, 500);
        assert_eq!(s.scanned_tuples, 1000);
        assert_eq!(s.base_tuples_accessed(), 1010);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = FetchStats::new();
        a.record_fetch(3);
        let mut b = FetchStats::new();
        b.record_scan(7);
        b.record_view_read(2);
        b.record_fetch(1);
        a.merge(&b);
        assert_eq!(a.fetched_tuples, 4);
        assert_eq!(a.fetch_calls, 2);
        assert_eq!(a.view_tuples, 2);
        assert_eq!(a.scanned_tuples, 7);
    }

    #[test]
    fn display_mentions_all_counters() {
        let mut s = FetchStats::new();
        s.record_fetch(5);
        s.record_scan(9);
        let text = s.to_string();
        assert!(text.contains("5"));
        assert!(text.contains("9"));
    }

    #[test]
    fn default_is_zero() {
        let s = FetchStats::default();
        assert_eq!(s.base_tuples_accessed(), 0);
        assert_eq!(s, FetchStats::new());
    }

    #[test]
    fn relation_stats_count_distinct_per_position() {
        use crate::schema::RelationSchema;
        use crate::tuple;
        // (1, 5), (2, 5), (3, 4) — 3 distinct at position 0, 2 at 1.
        let schema = RelationSchema::new("r", &["a", "b"]).unwrap();
        let tuples = [tuple![1, 5], tuple![2, 5], tuple![3, 4]];
        let stats = RelationStats::of_rows(&Relation::from_tuples(schema, tuples).unwrap());
        assert_eq!(stats.tuples(), 3);
        assert_eq!(stats.distinct(0), 3);
        assert_eq!(stats.distinct(1), 2);
        assert_eq!(stats.estimated_matches(&[]), 3.0);
        assert_eq!(stats.estimated_matches(&[0]), 1.0);
        assert_eq!(stats.estimated_matches(&[1]), 1.5);
        assert_eq!(stats.estimated_matches(&[0, 1]), 0.5);
    }

    #[test]
    fn relation_stats_of_empty_and_nullary_snapshots() {
        use crate::schema::RelationSchema;
        use crate::tuple::Tuple;
        let empty = Relation::empty(RelationSchema::new("r", &["a", "b"]).unwrap());
        let stats = RelationStats::of_rows(&empty);
        assert_eq!(stats.tuples(), 0);
        assert_eq!(stats.distinct(0), 0);
        assert_eq!(stats.estimated_matches(&[0]), 0.0);
        // A nullary relation holding the empty tuple has one row even
        // though it stores no ids.
        let mut nullary = Relation::empty(RelationSchema::new("t", &[]).unwrap());
        assert_eq!(RelationStats::of_rows(&nullary).tuples(), 0);
        nullary.insert(Tuple::new(vec![])).unwrap();
        let stats = RelationStats::of_rows(&nullary);
        assert_eq!(stats.tuples(), 1);
        assert_eq!(stats.estimated_matches(&[]), 1.0);
    }
}
