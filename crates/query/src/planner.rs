//! Cost-based atom ordering for the slot-based homomorphism engine.
//!
//! The engine in [`crate::hom`] executes a compiled search; this module
//! decides *what* to compile.  The search is the classic index-nested-loop
//! backtracking search: atoms are probed in a fixed order, each probe keyed
//! on the positions bound so far.  The order is everything, and this module
//! picks it with the selectivity cost model below.
//!
//! # Cost model
//!
//! Per-relation statistics ([`RelationStats`]) provide `|R|` and the number
//! of distinct values `d_p` at each attribute position.  The estimated
//! fan-out of probing atom `R(t̄)` when the positions `B ⊆ pos(t̄)` are bound
//! is the textbook uniformity-and-independence estimate
//!
//! ```text
//! est(R | B) = |R| / Π_{p ∈ B} d_p
//! ```
//!
//! `cost_based_order` greedily appends the remaining atom with the smallest
//! `est` given the variables bound so far (ties: fewer free variables, then
//! declaration index — the plan is a pure function of the query and the
//! statistics, never of hash-map iteration order).  Because the greedy step
//! is free to pick a cheap atom *disconnected* from what has been joined so
//! far, the resulting order is bushy in effect: independent subjoins are
//! interleaved by cost rather than forced into one left-deep chain rooted at
//! the first atom.

use bqr_data::RelationStats;
use std::collections::BTreeSet;

/// The planner has nothing to configure: every search runs the cost-based
/// atom order.  Kept as a field-less value only because the end-to-end
/// benchmark under `benchmark/` still passes one through
/// [`crate::eval::Evaluator::with_planner`]; it goes with that call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerConfig;

/// One position of an atom, as the planner sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TermShape {
    /// A constant, or a variable bound by the initial assignment: prunes at
    /// probe time.
    Bound,
    /// A free variable, identified by its slot.
    Free(u32),
}

/// The planner's view of one atom: its term shapes plus the statistics of
/// the relation it will probe.
#[derive(Debug, Clone)]
pub(crate) struct AtomShape {
    pub terms: Vec<TermShape>,
    pub stats: RelationStats,
}

impl AtomShape {
    fn free_slots(&self) -> BTreeSet<u32> {
        self.terms
            .iter()
            .filter_map(|t| match t {
                TermShape::Free(s) => Some(*s),
                TermShape::Bound => None,
            })
            .collect()
    }

    /// Positions bound given the set of bound slots.
    fn bound_positions(&self, bound: &[bool]) -> Vec<usize> {
        self.terms
            .iter()
            .enumerate()
            .filter(|(_, t)| match t {
                TermShape::Bound => true,
                TermShape::Free(s) => bound[*s as usize],
            })
            .map(|(p, _)| p)
            .collect()
    }
}

/// Greedy cost-based atom order: repeatedly append the atom with the
/// smallest estimated probe fan-out given the slots bound so far.
pub(crate) fn cost_based_order(atoms: &[AtomShape], slot_count: usize) -> Vec<usize> {
    let mut bound = vec![false; slot_count];
    let mut remaining: Vec<usize> = (0..atoms.len()).collect();
    let mut order = Vec::with_capacity(atoms.len());
    while !remaining.is_empty() {
        let mut best_at = 0usize;
        let mut best_key = (f64::INFINITY, usize::MAX);
        for (i, &atom_idx) in remaining.iter().enumerate() {
            let atom = &atoms[atom_idx];
            let est = atom.stats.estimated_matches(&atom.bound_positions(&bound));
            let free = atom
                .terms
                .iter()
                .filter(|t| matches!(t, TermShape::Free(s) if !bound[*s as usize]))
                .count();
            // Ties broken by fewer unbound positions, then declaration
            // index (remaining is kept in ascending index order).
            let key = (est, free);
            if key.0 < best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
                best_key = key;
                best_at = i;
            }
        }
        let atom_idx = remaining.remove(best_at);
        for slot in atoms[atom_idx].free_slots() {
            bound[slot as usize] = true;
        }
        order.push(atom_idx);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_data::{Relation, RelationSchema, Tuple, Value};

    /// Build stats for a synthetic relation: `rows` tuples where position
    /// `p` cycles through `distinct[p]` values.  A trailing row-number
    /// column, which no atom reads, keeps the tuples distinct.
    fn stats(rows: usize, distinct: &[usize]) -> RelationStats {
        let names: Vec<String> = (0..=distinct.len()).map(|p| format!("a{p}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let schema = RelationSchema::new("planner_test", &names).unwrap();
        let tuples = (0..rows).map(|r| {
            let cycling = distinct
                .iter()
                .enumerate()
                .map(|(p, &d)| Value::str(format!("planner-test-{p}-{}", r % d.max(1))));
            Tuple::new(cycling.chain([Value::int(r as i64)]).collect())
        });
        RelationStats::of_rows(&Relation::from_tuples(schema, tuples).unwrap())
    }

    fn free(slots: &[u32], stats_: RelationStats) -> AtomShape {
        AtomShape {
            terms: slots.iter().map(|&s| TermShape::Free(s)).collect(),
            stats: stats_,
        }
    }

    #[test]
    fn cost_based_order_starts_with_the_most_selective_atom() {
        // Atom 0: huge relation, nothing bound.  Atom 1: tiny relation.
        // Atom 2: huge but keyed tightly once slot 1 is bound.
        let atoms = vec![
            free(&[0, 1], stats(10_000, &[100, 100])),
            free(&[1], stats(4, &[4])),
            free(&[1, 2], stats(10_000, &[10_000, 10])),
        ];
        let order = cost_based_order(&atoms, 3);
        assert_eq!(order[0], 1, "tiny atom first");
        assert_eq!(
            order[1], 2,
            "slot 1 now bound: the keyed probe (est 1) beats the 100-row fan-out"
        );
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn plans_are_deterministic() {
        let atoms = vec![
            free(&[0, 1], stats(50, &[10, 10])),
            free(&[1, 2], stats(50, &[10, 10])),
            free(&[2, 0], stats(50, &[10, 10])),
        ];
        let a = cost_based_order(&atoms, 3);
        for _ in 0..10 {
            assert_eq!(cost_based_order(&atoms, 3), a);
        }
    }
}
