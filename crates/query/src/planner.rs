//! Cost-based join planning for the slot-based homomorphism engine.
//!
//! The engine in [`crate::hom`] executes a compiled search; this module
//! decides *what* to compile.  Two execution shapes exist:
//!
//! * **Atom-at-a-time** — the classic index-nested-loop backtracking search:
//!   atoms are probed in a fixed order, each probe keyed on the positions
//!   bound so far.  The order is everything; this module picks it either
//!   with the PR 1 heuristic ("most bound positions first",
//!   [`JoinStrategy::Heuristic`]) or with the selectivity cost model below
//!   ([`JoinStrategy::CostBased`]).
//! * **Variable-at-a-time generic join** ([`JoinStrategy::GenericJoin`]) —
//!   the worst-case-optimal strategy: variables are eliminated one at a
//!   time, and at each step the candidate values are the *intersection* of
//!   what every atom containing the variable allows.  On cyclic queries
//!   (triangles, k-cycles) this avoids the quadratic intermediate results
//!   every atom-at-a-time order is forced to enumerate.
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
//! [`JoinStrategy::CostBased`] greedily appends the remaining atom with the
//! smallest `est` given the variables bound so far (ties: fewer free
//! variables, then declaration index — the plan is a pure function of the
//! query and the statistics, never of hash-map iteration order).  Because
//! the greedy step is free to pick a cheap atom *disconnected* from what has
//! been joined so far, the resulting order is bushy in effect: independent
//! subjoins are interleaved by cost rather than forced into one left-deep
//! chain rooted at the first atom.
//!
//! # When generic join kicks in
//!
//! [`JoinStrategy::Auto`] (the default everywhere) runs the GYO reduction
//! over the hypergraph of *free* variables — initially-bound variables and
//! constants are stripped first, since a bound position prunes like a
//! constant.  If the residue is non-empty (the query is cyclic) and at least
//! three atoms participate, the plan is a generic join over a greedy
//! variable order (smallest estimated candidate set first, preferring
//! variables connected to those already eliminated); otherwise it is a
//! cost-based atom order.  Acyclic queries keep the atom-at-a-time engine:
//! with a tree-shaped join structure a good atom order is already optimal,
//! and per-level intersection bookkeeping would only add overhead.

use crate::acyclic::gyo_residue_of;
use bqr_data::RelationStats;
use std::collections::BTreeSet;

/// Which join-planning strategy the engine should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Cost-based atom order for acyclic structure, generic join for cyclic
    /// structure.  The default.
    #[default]
    Auto,
    /// The PR 1 ordering heuristic: most bound positions first, smaller
    /// variable count as tie-break.  Retained as the benchmark baseline.
    Heuristic,
    /// Greedy atom order by estimated probe fan-out (see the module docs).
    CostBased,
    /// Variable-at-a-time worst-case-optimal join, regardless of shape.
    GenericJoin,
}

/// Planner configuration, threaded through [`crate::eval::Evaluator`],
/// [`crate::containment::ContainmentChecker`] and the `bqr-core` decision
/// procedures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlannerConfig {
    /// The strategy to plan with.
    pub strategy: JoinStrategy,
}

impl PlannerConfig {
    /// Configuration using the given strategy.
    pub fn with_strategy(strategy: JoinStrategy) -> Self {
        PlannerConfig { strategy }
    }
}

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

/// The execution shape chosen for a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PlannedExecution {
    /// Probe atoms in this order (indexes into the original atom list).
    AtomOrder(Vec<usize>),
    /// Generic join, eliminating free slots in this order.
    GenericJoin(Vec<u32>),
}

/// Is the hypergraph of free slots cyclic (non-empty GYO residue)?
pub(crate) fn is_cyclic(atoms: &[AtomShape]) -> bool {
    gyo_residue_of(atoms.iter().map(AtomShape::free_slots)).len() > 1
}

/// Plan the execution of `atoms` under `config`.  `slot_count` is the total
/// number of interned slots (free and initially bound).
pub(crate) fn plan(
    atoms: &[AtomShape],
    slot_count: usize,
    config: &PlannerConfig,
) -> PlannedExecution {
    match config.strategy {
        JoinStrategy::CostBased | JoinStrategy::Heuristic => {
            // `Heuristic` order is computed by the caller (it needs the
            // original atom terms); reaching here means cost-based.
            PlannedExecution::AtomOrder(cost_based_order(atoms, slot_count))
        }
        JoinStrategy::GenericJoin => PlannedExecution::GenericJoin(variable_order(atoms)),
        JoinStrategy::Auto => {
            if atoms.len() >= 3 && is_cyclic(atoms) {
                PlannedExecution::GenericJoin(variable_order(atoms))
            } else {
                PlannedExecution::AtomOrder(cost_based_order(atoms, slot_count))
            }
        }
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

/// Greedy, degree-aware variable-elimination order for generic join.
///
/// Generic join's per-level intersections only *prune* when the variable
/// being eliminated has **two or more bound neighbours** — atoms in which it
/// co-occurs with already-eliminated variables.  The PR 2 order grew the
/// frontier connectedly ("smallest candidate set among neighbours"), which
/// walks even cycles like C4 as a chain: every level but the last has one
/// bound neighbour, so nothing prunes and the 4-cycle gained almost nothing
/// over a good atom order (the gap recorded in ROADMAP).
///
/// The degree-aware rule fixes exactly that:
///
/// 1. if some remaining variable has ≥ 2 bound atoms, eliminate the one with
///    the most (its candidates are intersections of several index probes —
///    maximal pruning); ties by smaller candidate estimate, then slot;
/// 2. otherwise **seed by degree**: eliminate the variable covering the most
///    atoms untouched by any chosen variable (its *residual* degree), ties
///    again by estimate then slot.  Deliberately *not* connectivity-greedy:
///    on C4 this picks the two opposite corners first, after which both
///    remaining variables have two bound neighbours and every candidate is
///    intersected from both sides.
///
/// The order is a pure function of the query shape and the relation
/// statistics — never of hash-map iteration order.
pub(crate) fn variable_order(atoms: &[AtomShape]) -> Vec<u32> {
    let all: BTreeSet<u32> = atoms.iter().flat_map(|a| a.free_slots()).collect();
    let mut chosen: Vec<u32> = Vec::with_capacity(all.len());
    let mut chosen_set: BTreeSet<u32> = BTreeSet::new();
    while chosen.len() < all.len() {
        let remaining: Vec<u32> = all
            .iter()
            .filter(|s| !chosen_set.contains(s))
            .copied()
            .collect();
        // Atoms containing `v` that also contain a chosen variable (bound
        // neighbours), and atoms containing `v` untouched by any chosen
        // variable (residual degree).
        let bound_atoms = |v: u32| {
            atoms
                .iter()
                .filter(|a| {
                    let free = a.free_slots();
                    free.contains(&v) && free.iter().any(|s| chosen_set.contains(s))
                })
                .count()
        };
        let residual_degree = |v: u32| {
            atoms
                .iter()
                .filter(|a| {
                    let free = a.free_slots();
                    free.contains(&v) && !free.iter().any(|s| chosen_set.contains(s))
                })
                .count()
        };
        let pick = |pool: &[u32], score: &dyn Fn(u32) -> usize| {
            pool.iter()
                .copied()
                .min_by(|&a, &b| {
                    score(b)
                        .cmp(&score(a)) // larger score first
                        .then_with(|| {
                            candidate_estimate(atoms, a)
                                .partial_cmp(&candidate_estimate(atoms, b))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .then(a.cmp(&b))
                })
                .expect("pool is non-empty while variables remain")
        };
        let intersecting: Vec<u32> = remaining
            .iter()
            .copied()
            .filter(|&v| bound_atoms(v) >= 2)
            .collect();
        let best = if intersecting.is_empty() {
            pick(&remaining, &residual_degree)
        } else {
            pick(&intersecting, &bound_atoms)
        };
        chosen.push(best);
        chosen_set.insert(best);
    }
    chosen
}

fn candidate_estimate(atoms: &[AtomShape], slot: u32) -> f64 {
    let mut best = f64::INFINITY;
    for atom in atoms {
        for (pos, term) in atom.terms.iter().enumerate() {
            if *term == TermShape::Free(slot) {
                best = best.min(atom.stats.distinct(pos) as f64);
            }
        }
    }
    best
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
        let a = plan(&atoms, 3, &PlannerConfig::default());
        for _ in 0..10 {
            assert_eq!(plan(&atoms, 3, &PlannerConfig::default()), a);
        }
    }

    #[test]
    fn auto_picks_generic_join_only_for_cyclic_structure() {
        let triangle = vec![
            free(&[0, 1], stats(10, &[5, 5])),
            free(&[1, 2], stats(10, &[5, 5])),
            free(&[2, 0], stats(10, &[5, 5])),
        ];
        assert!(is_cyclic(&triangle));
        assert!(matches!(
            plan(&triangle, 3, &PlannerConfig::default()),
            PlannedExecution::GenericJoin(_)
        ));

        let path = vec![
            free(&[0, 1], stats(10, &[5, 5])),
            free(&[1, 2], stats(10, &[5, 5])),
            free(&[2, 3], stats(10, &[5, 5])),
        ];
        assert!(!is_cyclic(&path));
        assert!(matches!(
            plan(&path, 4, &PlannerConfig::default()),
            PlannedExecution::AtomOrder(_)
        ));

        // Binding a variable of the cycle breaks it: a triangle with slot 0
        // initially bound is a path between 1 and 2.
        let bound_triangle = vec![
            AtomShape {
                terms: vec![TermShape::Bound, TermShape::Free(1)],
                stats: stats(10, &[5, 5]),
            },
            free(&[1, 2], stats(10, &[5, 5])),
            AtomShape {
                terms: vec![TermShape::Free(2), TermShape::Bound],
                stats: stats(10, &[5, 5]),
            },
        ];
        assert!(!is_cyclic(&bound_triangle));
    }

    #[test]
    fn generic_join_variable_order_covers_every_free_slot() {
        let atoms = vec![
            free(&[0, 1], stats(100, &[50, 2])),
            free(&[1, 2], stats(100, &[2, 50])),
            free(&[2, 0], stats(100, &[50, 50])),
        ];
        let order = variable_order(&atoms);
        let as_set: BTreeSet<u32> = order.iter().copied().collect();
        assert_eq!(as_set, [0u32, 1, 2].into_iter().collect());
        assert_eq!(order[0], 1, "slot 1 has the smallest candidate estimate");
    }

    #[test]
    fn degree_aware_order_picks_opposite_corners_of_even_cycles() {
        // C4: 0–1–2–3–0, uniform statistics.  The degree-aware rule seeds
        // with slot 0, then jumps to the opposite corner (slot 2, the only
        // remaining variable with residual degree 2) so that both remaining
        // corners are eliminated with two bound neighbours each — the
        // configuration where generic join's intersections actually prune.
        let c4 = vec![
            free(&[0, 1], stats(40, &[10, 10])),
            free(&[1, 2], stats(40, &[10, 10])),
            free(&[2, 3], stats(40, &[10, 10])),
            free(&[3, 0], stats(40, &[10, 10])),
        ];
        let order = variable_order(&c4);
        assert_eq!(order[..2], [0, 2], "opposite corners first: {order:?}");
        for late in &order[2..] {
            let bound: usize = c4
                .iter()
                .filter(|a| {
                    let free = a.free_slots();
                    free.contains(late) && free.iter().any(|s| order[..2].contains(s))
                })
                .count();
            assert_eq!(bound, 2, "slot {late} eliminates with 2 bound atoms");
        }

        // C6 also alternates corners before filling in.
        let c6: Vec<AtomShape> = (0..6u32)
            .map(|i| free(&[i, (i + 1) % 6], stats(60, &[10, 10])))
            .collect();
        let order = variable_order(&c6);
        let as_set: BTreeSet<u32> = order.iter().copied().collect();
        assert_eq!(as_set.len(), 6);
        assert!(
            !c6.iter()
                .any(|a| a.free_slots() == order[..2].iter().copied().collect::<BTreeSet<_>>()),
            "the first two picks never share an atom: {order:?}"
        );
    }

    #[test]
    fn explicit_strategies_override_auto() {
        let triangle = vec![
            free(&[0, 1], stats(10, &[5, 5])),
            free(&[1, 2], stats(10, &[5, 5])),
            free(&[2, 0], stats(10, &[5, 5])),
        ];
        assert!(matches!(
            plan(
                &triangle,
                3,
                &PlannerConfig::with_strategy(JoinStrategy::CostBased)
            ),
            PlannedExecution::AtomOrder(_)
        ));
        let path = vec![
            free(&[0, 1], stats(10, &[5, 5])),
            free(&[1, 2], stats(10, &[5, 5])),
        ];
        assert!(matches!(
            plan(
                &path,
                3,
                &PlannerConfig::with_strategy(JoinStrategy::GenericJoin)
            ),
            PlannedExecution::GenericJoin(_)
        ));
    }
}
