//! Acyclicity of conjunctive queries (the class ACQ of Section 4).
//!
//! A CQ is *acyclic* when its hypergraph — one vertex per variable, one
//! hyperedge per relation atom — has hypertree-width 1, which is equivalent
//! to the GYO reduction eliminating every vertex and edge.  The GYO reduction
//! repeatedly (i) removes vertices that occur in at most one hyperedge and
//! (ii) removes hyperedges contained in another hyperedge.

use crate::cq::ConjunctiveQuery;
use std::collections::BTreeSet;

/// The hypergraph of a conjunctive query.
#[derive(Debug, Clone)]
pub struct Hypergraph {
    /// One edge per atom: the set of variables occurring in it.
    pub edges: Vec<BTreeSet<String>>,
}

impl Hypergraph {
    /// Build the hypergraph of a query.
    pub fn of(cq: &ConjunctiveQuery) -> Self {
        Hypergraph {
            edges: cq.atoms().iter().map(|a| a.variables()).collect(),
        }
    }

    /// All vertices (variables).
    pub fn vertices(&self) -> BTreeSet<String> {
        self.edges.iter().flatten().cloned().collect()
    }

    /// Run the GYO reduction; returns the remaining (non-empty) edges.
    pub fn gyo_residue(&self) -> Vec<BTreeSet<String>> {
        gyo_residue_of(self.edges.iter().filter(|e| !e.is_empty()).cloned())
    }
}

/// The GYO reduction of [`Hypergraph::gyo_residue`], over any ordered
/// vertex type.
fn gyo_residue_of<T: Ord + Clone>(
    edges: impl IntoIterator<Item = BTreeSet<T>>,
) -> Vec<BTreeSet<T>> {
    let mut edges: Vec<BTreeSet<T>> = edges.into_iter().filter(|e| !e.is_empty()).collect();
    loop {
        let mut changed = false;

        // Rule 1: remove vertices occurring in at most one edge.
        let mut counts: std::collections::BTreeMap<&T, usize> = std::collections::BTreeMap::new();
        for e in &edges {
            for v in e {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        let isolated: BTreeSet<T> = counts
            .into_iter()
            .filter(|(_, c)| *c <= 1)
            .map(|(v, _)| v.clone())
            .collect();
        if !isolated.is_empty() {
            for e in &mut edges {
                let before = e.len();
                e.retain(|v| !isolated.contains(v));
                if e.len() != before {
                    changed = true;
                }
            }
        }
        edges.retain(|e| !e.is_empty());

        // Rule 2: remove edges contained in another edge.
        let mut keep: Vec<bool> = vec![true; edges.len()];
        for i in 0..edges.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..edges.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if edges[i].is_subset(&edges[j]) && (edges[i] != edges[j] || i > j) {
                    keep[i] = false;
                    changed = true;
                    break;
                }
            }
        }
        let filtered: Vec<BTreeSet<T>> = edges
            .into_iter()
            .zip(&keep)
            .filter(|(_, k)| **k)
            .map(|(e, _)| e)
            .collect();
        edges = filtered;

        if !changed {
            break;
        }
    }
    edges
}

/// Is the query acyclic (an ACQ)?
pub fn is_acyclic(cq: &ConjunctiveQuery) -> bool {
    Hypergraph::of(cq).gyo_residue().len() <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Term};
    use crate::testutil::{q0, va};

    fn boolean(atoms: Vec<Atom>) -> ConjunctiveQuery {
        ConjunctiveQuery::boolean(atoms).unwrap()
    }

    #[test]
    fn q0_is_acyclic() {
        assert!(is_acyclic(&q0()));
    }

    #[test]
    fn single_atom_and_empty_queries_are_acyclic() {
        assert!(is_acyclic(&boolean(vec![])));
        assert!(is_acyclic(&boolean(vec![va("r", &["x", "y", "z"])])));
        // All-constant atoms contribute empty edges and are trivially acyclic.
        assert!(is_acyclic(&boolean(vec![Atom::new(
            "r",
            vec![Term::cnst(1), Term::cnst(2)]
        )])));
    }

    #[test]
    fn path_is_acyclic_triangle_is_not() {
        let path = boolean(vec![
            va("e", &["x", "y"]),
            va("e", &["y", "z"]),
            va("e", &["z", "w"]),
        ]);
        assert!(is_acyclic(&path));

        let triangle = boolean(vec![
            va("e", &["x", "y"]),
            va("e", &["y", "z"]),
            va("e", &["z", "x"]),
        ]);
        assert!(!is_acyclic(&triangle));
    }

    #[test]
    fn star_join_is_acyclic() {
        let star = boolean(vec![
            va("r", &["c", "a"]),
            va("s", &["c", "b"]),
            va("t", &["c", "d"]),
        ]);
        assert!(is_acyclic(&star));
    }

    #[test]
    fn cycle_of_length_four_is_cyclic_but_with_chord_edgecase() {
        let square = boolean(vec![
            va("e", &["a", "b"]),
            va("e", &["b", "c"]),
            va("e", &["c", "d"]),
            va("e", &["d", "a"]),
        ]);
        assert!(!is_acyclic(&square));

        // Adding a big atom covering the whole cycle makes it acyclic
        // (every edge is contained in the big one).
        let covered = boolean(vec![
            va("e", &["a", "b"]),
            va("e", &["b", "c"]),
            va("e", &["c", "d"]),
            va("e", &["d", "a"]),
            va("big", &["a", "b", "c", "d"]),
        ]);
        assert!(is_acyclic(&covered));
    }

    #[test]
    fn duplicate_edges_do_not_confuse_reduction() {
        let q = boolean(vec![va("e", &["x", "y"]), va("e", &["x", "y"])]);
        assert!(is_acyclic(&q));
    }

    #[test]
    fn generic_residue_agrees_on_slot_edges() {
        // Triangle over u32 slots: cyclic.
        let triangle: Vec<BTreeSet<u32>> = vec![
            [0u32, 1].into_iter().collect(),
            [1u32, 2].into_iter().collect(),
            [2u32, 0].into_iter().collect(),
        ];
        assert!(gyo_residue_of(triangle).len() > 1);
        // Path: acyclic.
        let path: Vec<BTreeSet<u32>> = vec![
            [0u32, 1].into_iter().collect(),
            [1u32, 2].into_iter().collect(),
        ];
        assert!(gyo_residue_of(path).len() <= 1);
    }

    #[test]
    fn hypergraph_accessors() {
        let q = boolean(vec![va("e", &["x", "y"]), va("f", &["y", "z"])]);
        let h = Hypergraph::of(&q);
        assert_eq!(h.edges.len(), 2);
        assert_eq!(h.vertices().len(), 3);
        assert!(h.gyo_residue().len() <= 1);
    }
}
