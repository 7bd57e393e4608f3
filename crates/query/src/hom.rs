//! Homomorphism search: matching the atoms of a conjunctive query against a
//! collection of relations.
//!
//! This is the single engine behind CQ evaluation (enumerate all matches and
//! project the head), the Chandra–Merlin containment test (match into a
//! canonical instance) and the `A`-equivalence procedures.  The module
//! compiles each query into a small *slot machine* whose atom order the
//! cost-based planner in [`crate::planner`] picks:
//!
//! * **Variable slots** — a [`VarTable`] interns every variable name to a
//!   dense `u32` slot; the partial assignment is a flat `Vec<Option<ValueId>>`
//!   indexed by slot.  No string comparison or `BTreeMap` traffic happens
//!   inside the search.
//! * **Interned values** — every [`Value`] is interned once, when it is
//!   inserted, and a relation stores dense [`ValueId`] rows, so the inner
//!   loop compares and hashes plain `u32`s.
//! * **Planned atom order** — atoms are probed one at a time, in the
//!   greedy *cost-based order* of [`crate::planner`] (estimated probe fan-out
//!   `|R| / Π d_p` from the relation statistics, bushy in effect because
//!   disconnected cheap atoms may be interleaved).  A variable repeated
//!   within an atom is bound by its first occurrence and compared at the
//!   others.
//! * **Cached indexes** — each atom probes an
//!   [`InternedAccessIndex`] of its relation's whole tuples, keyed on the
//!   positions bound when the atom is reached; the indexes (and the
//!   planner's [`bqr_data::RelationStats`]) come from a
//!   [`bqr_data::IndexCache`], so a workload that repeatedly matches into
//!   the same relation (the dominant cost of repeated containment checks)
//!   builds each `(relation, access pattern)` index once instead of once per
//!   call.  A nullary atom has no index: it holds exactly when its relation
//!   is non-empty, which compilation decides.
//! * **Visitor-driven search** — [`HomSearch::run`] reports matches through a
//!   callback borrowing the slot array; nothing is materialised unless the
//!   caller asks for it.  `has_homomorphism` allocates no result vectors at
//!   all, and the atom-order candidate loop performs no heap allocation and
//!   no `String`-keyed map operations.  [`Assignment`] maps are cloned only
//!   at match emission, for callers that need materialised name→value maps.
//!
//! The original `BTreeMap`-driven engine is retained verbatim in
//! [`reference`](mod@reference): it is the oracle for the engine-equivalence property tests
//! and the baseline of the `hom` microbenchmarks.

use crate::atom::{Atom, Term};
use crate::error::QueryError;
use crate::planner::{self, AtomShape, TermShape};
use crate::Result;
use bqr_data::{IndexCache, InternedAccessIndex, Relation, Value, ValueId};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::rc::Rc;

/// A (partial) assignment of values to variable names — the materialised
/// form handed to callers that need maps; the engine itself works on slots.
pub type Assignment = BTreeMap<String, Value>;

/// How many results the caller wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchLimit {
    /// Stop after the first match (containment / satisfiability checks).
    First,
    /// Enumerate all matches, failing if more than the given number exist.
    AtMost(usize),
}

/// Interning of variable names to dense `u32` slots.
///
/// Queries have few variables, so lookup is a linear scan over a `Vec` —
/// cheaper in practice than hashing, and only used at compile time anyway.
#[derive(Debug, Default, Clone)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
    fn intern(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        }
    }

    /// The slot of `name`, if interned.
    pub fn slot(&self, name: &str) -> Option<u32> {
        self.names.iter().position(|n| n == name).map(|i| i as u32)
    }

    /// The name interned at `slot`.
    pub fn name(&self, slot: u32) -> &str {
        &self.names[slot as usize]
    }

    /// Number of interned variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no variable is interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// One component of a probe-key recipe, evaluated against the slot array.
#[derive(Debug)]
enum KeyPart {
    Const(ValueId),
    Slot(u32),
}

/// Per-position work left after an index probe: bind a fresh slot or check
/// a slot bound earlier *within the same atom* (every other position is part
/// of the probe key and therefore already guaranteed to match).
#[derive(Debug)]
enum PosOp {
    Bind { pos: usize, slot: u32 },
    CheckSlot { pos: usize, slot: u32 },
}

/// One atom compiled against an atom order.
#[derive(Debug)]
struct CompiledAtom {
    key: Vec<KeyPart>,
    ops: Vec<PosOp>,
    /// Slots bound by this atom, for backtracking.
    bind_slots: Vec<u32>,
    index: Rc<InternedAccessIndex>,
}

/// A view of one match during [`HomSearch::run`]: variable slots plus their
/// current values, alive only for the duration of the callback.
pub struct HomMatch<'a> {
    vars: &'a VarTable,
    slots: &'a [Option<ValueId>],
}

impl HomMatch<'_> {
    /// The value bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.vars.slot(name).and_then(|s| self.value(s))
    }

    /// The value bound to `slot`, if any (resolved out of the value pool).
    pub fn value(&self, slot: u32) -> Option<Value> {
        self.slots[slot as usize].map(ValueId::value)
    }

    /// The interned id bound to `slot`, if any.
    pub fn id(&self, slot: u32) -> Option<ValueId> {
        self.slots[slot as usize]
    }

    /// The variable table of the search.
    pub fn vars(&self) -> &VarTable {
        self.vars
    }

    /// Materialise the match as a name→value map (this is the only point
    /// where the engine clones into an [`Assignment`]).
    pub fn to_assignment(&self) -> Assignment {
        let mut out = Assignment::new();
        for (i, v) in self.slots.iter().enumerate() {
            if let Some(v) = v {
                out.insert(self.vars.name(i as u32).to_string(), v.value());
            }
        }
        out
    }
}

/// A homomorphism search compiled for one (atom list, relation set, initial
/// assignment) triple.  Compile once, [`run`](HomSearch::run) as often as
/// needed.
#[derive(Debug)]
pub struct HomSearch {
    vars: VarTable,
    /// The atoms in probe order; `None` when compilation proved the search
    /// empty: some query constant has never been interned, so it occurs in
    /// no relation and no probe can match, or a nullary atom's relation is
    /// empty.
    atoms: Option<Vec<CompiledAtom>>,
    /// Slot values fixed by the initial assignment.
    initial: Vec<(u32, ValueId)>,
    /// The planned atom order (indexes into the input atom list).
    order: Vec<usize>,
}

impl HomSearch {
    /// Compile the search in the planner's cost-based atom order.
    /// Validates relation names and arities (the same errors the old engine
    /// reported) and builds or fetches the per-atom hash indexes through
    /// `cache`.
    pub fn compile(
        atoms: &[Atom],
        relations: &BTreeMap<String, &Relation>,
        initial: &Assignment,
        cache: &IndexCache,
    ) -> Result<Self> {
        for atom in atoms {
            let rel = relations
                .get(atom.relation())
                .ok_or_else(|| QueryError::UnknownRelation(atom.relation().to_string()))?;
            if rel.schema().arity() != atom.arity() {
                return Err(QueryError::AtomArity {
                    relation: atom.relation().to_string(),
                    expected: rel.schema().arity(),
                    actual: atom.arity(),
                });
            }
        }

        // Slot numbering is declaration order (initial assignment first),
        // independent of the atom order the planner picks.
        let mut vars = VarTable::default();
        let mut initial_slots = Vec::with_capacity(initial.len());
        for (name, value) in initial {
            initial_slots.push((vars.intern(name), ValueId::try_intern(value)?));
        }
        let initial_len = initial_slots.len();

        let mut shapes: Vec<AtomShape> = Vec::with_capacity(atoms.len());
        for atom in atoms {
            let stats = cache.stats(relations[atom.relation()]);
            let terms = atom
                .args()
                .iter()
                .map(|t| match t {
                    Term::Const(_) => TermShape::Bound,
                    Term::Var(v) => {
                        let slot = vars.intern(v);
                        if (slot as usize) < initial_len {
                            TermShape::Bound
                        } else {
                            TermShape::Free(slot)
                        }
                    }
                })
                .collect();
            shapes.push(AtomShape { terms, stats });
        }

        let order = planner::cost_based_order(&shapes, vars.len());
        let compiled = compile_atom_order(atoms, relations, cache, &mut vars, initial_len, &order);
        Ok(HomSearch {
            vars,
            atoms: compiled,
            initial: initial_slots,
            order,
        })
    }

    /// The variable table (name ↔ slot mapping) of the compiled search.
    pub fn vars(&self) -> &VarTable {
        &self.vars
    }

    /// The atom order the planner chose, as indexes into the input atom
    /// list (the determinism tests compare it).
    pub fn atom_order(&self) -> &[usize] {
        &self.order
    }

    /// Run the search, invoking `visit` once per homomorphism.  Returning
    /// `ControlFlow::Break(())` from the callback stops the enumeration.
    pub fn run(&self, mut visit: impl FnMut(HomMatch<'_>) -> ControlFlow<()>) -> Result<()> {
        self.try_run(|m| Ok(visit(m))).map(|_| ())
    }

    /// Like [`run`](HomSearch::run), but the callback may fail; the error
    /// aborts the search and is propagated.
    pub fn try_run(
        &self,
        mut visit: impl FnMut(HomMatch<'_>) -> Result<ControlFlow<()>>,
    ) -> Result<ControlFlow<()>> {
        let Some(atoms) = &self.atoms else {
            return Ok(ControlFlow::Continue(()));
        };
        let mut slots: Vec<Option<ValueId>> = vec![None; self.vars.len()];
        for (slot, value) in &self.initial {
            slots[*slot as usize] = Some(*value);
        }
        let mut key_buf: Vec<ValueId> = Vec::new();
        self.atom_search(atoms, 0, &mut slots, &mut key_buf, &mut |m| visit(m))
    }

    fn atom_search(
        &self,
        atoms: &[CompiledAtom],
        depth: usize,
        slots: &mut Vec<Option<ValueId>>,
        key_buf: &mut Vec<ValueId>,
        visit: &mut dyn FnMut(HomMatch<'_>) -> Result<ControlFlow<()>>,
    ) -> Result<ControlFlow<()>> {
        if depth == atoms.len() {
            return visit(HomMatch {
                vars: &self.vars,
                slots,
            });
        }
        let atom = &atoms[depth];

        // Build the probe key into the shared scratch buffer (its capacity
        // is reused across the whole search); the buffer is free for reuse
        // by deeper levels as soon as the probe below returns.
        build_key(&atom.key, slots, key_buf);

        'candidates: for row in atom.index.probe(key_buf).chunks_exact(atom.index.arity()) {
            for op in &atom.ops {
                match op {
                    PosOp::Bind { pos, slot } => {
                        slots[*slot as usize] = Some(row[*pos]);
                    }
                    PosOp::CheckSlot { pos, slot } => {
                        if slots[*slot as usize] != Some(row[*pos]) {
                            for &s in &atom.bind_slots {
                                slots[s as usize] = None;
                            }
                            continue 'candidates;
                        }
                    }
                }
            }
            let flow = self.atom_search(atoms, depth + 1, slots, key_buf, visit)?;
            for &s in &atom.bind_slots {
                slots[s as usize] = None;
            }
            if flow == ControlFlow::Break(()) {
                return Ok(ControlFlow::Break(()));
            }
        }
        Ok(ControlFlow::Continue(()))
    }
}

fn build_key(recipe: &[KeyPart], slots: &[Option<ValueId>], out: &mut Vec<ValueId>) {
    out.clear();
    for part in recipe {
        out.push(match part {
            KeyPart::Const(c) => *c,
            KeyPart::Slot(s) => {
                slots[*s as usize].expect("probe-key slots are bound by construction")
            }
        });
    }
}

/// Compile atoms for atom-at-a-time execution in the given order.
fn compile_atom_order(
    atoms: &[Atom],
    relations: &BTreeMap<String, &Relation>,
    cache: &IndexCache,
    vars: &mut VarTable,
    initial_len: usize,
    order: &[usize],
) -> Option<Vec<CompiledAtom>> {
    // `bound[slot]` = the slot has a value by the time the current atom
    // is reached (initially bound, or bound by an earlier atom).
    let mut bound: Vec<bool> = vec![false; vars.len()];
    for b in bound.iter_mut().take(initial_len) {
        *b = true;
    }
    let mut compiled = Vec::with_capacity(order.len());
    let mut key_positions: Vec<usize> = Vec::new();
    for &atom_idx in order {
        let atom = &atoms[atom_idx];
        if atom.arity() == 0 {
            // Matches once, binding nothing, if its relation holds the empty
            // tuple; never otherwise.
            if relations[atom.relation()].is_empty() {
                return None;
            }
            continue;
        }
        key_positions.clear();
        let mut key = Vec::new();
        let mut ops = Vec::new();
        let mut bind_slots: Vec<u32> = Vec::new();
        for (pos, term) in atom.args().iter().enumerate() {
            match term {
                Term::Const(c) => {
                    // A stored value was interned when it was inserted, so
                    // a constant the pool has never seen occurs in no probed
                    // relation: the search is unsatisfiable and needs no
                    // pool entry.
                    key_positions.push(pos);
                    key.push(KeyPart::Const(ValueId::lookup(c)?));
                }
                Term::Var(v) => {
                    let slot = vars.intern(v);
                    if bound[slot as usize] {
                        key_positions.push(pos);
                        key.push(KeyPart::Slot(slot));
                    } else if bind_slots.contains(&slot) {
                        // Repeated occurrence within this atom: the first
                        // occurrence binds, later ones compare.
                        ops.push(PosOp::CheckSlot { pos, slot });
                    } else {
                        bind_slots.push(slot);
                        ops.push(PosOp::Bind { pos, slot });
                    }
                }
            }
        }
        for &slot in &bind_slots {
            bound[slot as usize] = true;
        }
        // Every atom passed `HomSearch::compile`'s arity check, and a
        // nullary one was decided above without an index.
        let index = cache.interned_index_for(relations[atom.relation()], &key_positions);
        let index = index.expect("a compiled atom's positions are its relation's");
        compiled.push(CompiledAtom {
            key,
            ops,
            bind_slots,
            index,
        });
    }
    Some(compiled)
}

/// Enumerate homomorphisms from `atoms` into the relations provided by
/// `relations` (one entry per distinct relation name used by the atoms),
/// starting from an initial partial assignment.
///
/// Returns the list of total assignments restricted to the variables of the
/// atoms (plus whatever the initial assignment already bound).  Builds its
/// indexes into a transient cache; use [`enumerate_homomorphisms_cached`]
/// when making repeated calls against the same relations.
pub fn enumerate_homomorphisms(
    atoms: &[Atom],
    relations: &BTreeMap<String, &Relation>,
    initial: &Assignment,
    limit: MatchLimit,
) -> Result<Vec<Assignment>> {
    enumerate_homomorphisms_cached(atoms, relations, initial, limit, &IndexCache::new())
}

/// [`enumerate_homomorphisms`] with caller-provided index caching.
pub fn enumerate_homomorphisms_cached(
    atoms: &[Atom],
    relations: &BTreeMap<String, &Relation>,
    initial: &Assignment,
    limit: MatchLimit,
    cache: &IndexCache,
) -> Result<Vec<Assignment>> {
    let search = HomSearch::compile(atoms, relations, initial, cache)?;
    let mut results = Vec::new();
    let _ = search.try_run(|m| {
        results.push(m.to_assignment());
        match limit {
            MatchLimit::First => Ok(ControlFlow::Break(())),
            MatchLimit::AtMost(max) => {
                if results.len() > max {
                    Err(QueryError::BudgetExceeded("enumerating homomorphisms"))
                } else {
                    Ok(ControlFlow::Continue(()))
                }
            }
        }
    })?;
    Ok(results)
}

/// Convenience wrapper: is there at least one homomorphism?
pub fn has_homomorphism(
    atoms: &[Atom],
    relations: &BTreeMap<String, &Relation>,
    initial: &Assignment,
) -> Result<bool> {
    has_homomorphism_cached(atoms, relations, initial, &IndexCache::new())
}

/// [`has_homomorphism`] with caller-provided index caching.  Materialises
/// nothing: the visitor short-circuits on the first match.
pub fn has_homomorphism_cached(
    atoms: &[Atom],
    relations: &BTreeMap<String, &Relation>,
    initial: &Assignment,
    cache: &IndexCache,
) -> Result<bool> {
    let search = HomSearch::compile(atoms, relations, initial, cache)?;
    let mut found = false;
    search.run(|_| {
        found = true;
        ControlFlow::Break(())
    })?;
    Ok(found)
}

/// The pre-refactor `BTreeMap`-driven engine, kept as the oracle for the
/// engine-equivalence property tests and as the baseline of the `hom`
/// microbenchmarks.  Semantics are identical to the slot engine; performance
/// is not: it allocates a fresh probe key per node, clones the whole map per
/// match, and rebuilds its hash indexes on every call.
pub mod reference {
    use super::{Assignment, MatchLimit};
    use crate::atom::{Atom, Term};
    use crate::error::QueryError;
    use crate::Result;
    use bqr_data::{Relation, TupleRef, Value};
    use std::collections::{BTreeMap, BTreeSet, HashMap};

    /// Enumerate homomorphisms with the naive engine.
    pub fn enumerate_homomorphisms(
        atoms: &[Atom],
        relations: &BTreeMap<String, &Relation>,
        initial: &Assignment,
        limit: MatchLimit,
    ) -> Result<Vec<Assignment>> {
        for atom in atoms {
            let rel = relations
                .get(atom.relation())
                .ok_or_else(|| QueryError::UnknownRelation(atom.relation().to_string()))?;
            if rel.schema().arity() != atom.arity() {
                return Err(QueryError::AtomArity {
                    relation: atom.relation().to_string(),
                    expected: rel.schema().arity(),
                    actual: atom.arity(),
                });
            }
        }

        let order = order_atoms(atoms, initial);
        let mut results = Vec::new();
        let mut assignment = initial.clone();
        let mut indices: Vec<AtomIndex<'_>> = Vec::with_capacity(order.len());

        let mut bound: BTreeSet<String> = initial.keys().cloned().collect();
        for &atom_idx in &order {
            let atom = &atoms[atom_idx];
            let rel = relations[atom.relation()];
            let index = AtomIndex::build(atom, rel, &bound);
            for v in atom.variables() {
                bound.insert(v);
            }
            indices.push(index);
        }

        search(
            &order,
            atoms,
            &indices,
            0,
            &mut assignment,
            &mut results,
            limit,
        )?;
        Ok(results)
    }

    /// Is there at least one homomorphism (naive engine)?
    pub fn has_homomorphism(
        atoms: &[Atom],
        relations: &BTreeMap<String, &Relation>,
        initial: &Assignment,
    ) -> Result<bool> {
        Ok(!enumerate_homomorphisms(atoms, relations, initial, MatchLimit::First)?.is_empty())
    }

    /// Greedy join order: repeatedly pick the atom with the most bound positions
    /// (constants, already-selected variables, initially bound variables), using
    /// the smaller relation arity as a tie-break proxy.
    fn order_atoms(atoms: &[Atom], initial: &Assignment) -> Vec<usize> {
        let mut remaining: BTreeSet<usize> = (0..atoms.len()).collect();
        let mut bound: BTreeSet<String> = initial.keys().cloned().collect();
        let mut order = Vec::with_capacity(atoms.len());
        while !remaining.is_empty() {
            let best = *remaining
                .iter()
                .max_by_key(|&&i| {
                    let atom = &atoms[i];
                    let bound_positions = atom
                        .args()
                        .iter()
                        .filter(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => bound.contains(v),
                        })
                        .count();
                    // Prefer more bound positions, then fewer free variables.
                    (bound_positions * 100).saturating_sub(atom.variables().len())
                })
                .expect("remaining is non-empty");
            remaining.remove(&best);
            for v in atoms[best].variables() {
                bound.insert(v);
            }
            order.push(best);
        }
        order
    }

    /// A hash index over one atom's relation, keyed on the positions that are
    /// bound when the atom is reached in the join order.  Rebuilt per call.
    struct AtomIndex<'a> {
        key_positions: Vec<usize>,
        map: HashMap<Vec<Value>, Vec<TupleRef<'a>>>,
    }

    impl<'a> AtomIndex<'a> {
        fn build(atom: &Atom, relation: &'a Relation, bound: &BTreeSet<String>) -> Self {
            let key_positions: Vec<usize> = atom
                .args()
                .iter()
                .enumerate()
                .filter(|(_, t)| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                })
                .map(|(i, _)| i)
                .collect();
            let mut map: HashMap<Vec<Value>, Vec<TupleRef<'a>>> = HashMap::new();
            for tuple in relation.iter() {
                let key: Vec<Value> = key_positions.iter().map(|&p| tuple[p].clone()).collect();
                map.entry(key).or_default().push(tuple);
            }
            AtomIndex { key_positions, map }
        }

        fn probe(&self, key: &[Value]) -> &[TupleRef<'a>] {
            self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn search(
        order: &[usize],
        atoms: &[Atom],
        indices: &[AtomIndex<'_>],
        depth: usize,
        assignment: &mut Assignment,
        results: &mut Vec<Assignment>,
        limit: MatchLimit,
    ) -> Result<()> {
        if depth == order.len() {
            results.push(assignment.clone());
            if let MatchLimit::AtMost(max) = limit {
                if results.len() > max {
                    return Err(QueryError::BudgetExceeded("enumerating homomorphisms"));
                }
            }
            return Ok(());
        }
        let atom = &atoms[order[depth]];
        let index = &indices[depth];

        let key: Vec<Value> = index
            .key_positions
            .iter()
            .map(|&p| match &atom.args()[p] {
                Term::Const(c) => c.clone(),
                Term::Var(v) => assignment
                    .get(v)
                    .cloned()
                    .expect("key positions only contain bound variables"),
            })
            .collect();

        'candidates: for tuple in index.probe(&key) {
            let mut newly_bound: Vec<String> = Vec::new();
            for (pos, term) in atom.args().iter().enumerate() {
                match term {
                    Term::Const(c) => {
                        if &tuple[pos] != c {
                            undo(assignment, &newly_bound);
                            continue 'candidates;
                        }
                    }
                    Term::Var(v) => match assignment.get(v) {
                        Some(existing) => {
                            if existing != &tuple[pos] {
                                undo(assignment, &newly_bound);
                                continue 'candidates;
                            }
                        }
                        None => {
                            assignment.insert(v.clone(), tuple[pos].clone());
                            newly_bound.push(v.clone());
                        }
                    },
                }
            }
            search(order, atoms, indices, depth + 1, assignment, results, limit)?;
            undo(assignment, &newly_bound);
            if matches!(limit, MatchLimit::First) && !results.is_empty() {
                return Ok(());
            }
        }
        Ok(())
    }

    fn undo(assignment: &mut Assignment, newly_bound: &[String]) {
        for v in newly_bound {
            assignment.remove(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{movie_instance, va};
    use bqr_data::Value;
    use std::collections::BTreeSet;

    fn relations(db: &bqr_data::Database) -> BTreeMap<String, &Relation> {
        db.relations().map(|r| (r.name().to_string(), r)).collect()
    }

    #[test]
    fn single_atom_enumeration() {
        let db = movie_instance();
        let rels = relations(&db);
        let atoms = vec![va("rating", &["m", "r"])];
        let matches =
            enumerate_homomorphisms(&atoms, &rels, &Assignment::new(), MatchLimit::AtMost(100))
                .unwrap();
        assert_eq!(matches.len(), 3);
        assert!(matches
            .iter()
            .all(|m| m.contains_key("m") && m.contains_key("r")));
    }

    #[test]
    fn constants_filter_candidates() {
        let db = movie_instance();
        let rels = relations(&db);
        let atoms = vec![Atom::new("rating", vec![Term::var("m"), Term::cnst(5)])];
        let matches =
            enumerate_homomorphisms(&atoms, &rels, &Assignment::new(), MatchLimit::AtMost(100))
                .unwrap();
        assert_eq!(matches.len(), 2, "movies 10 and 12 have rating 5");
    }

    #[test]
    fn join_across_atoms() {
        let db = movie_instance();
        let rels = relations(&db);
        // people from NASA together with the movies they like
        let atoms = vec![
            Atom::new(
                "person",
                vec![Term::var("p"), Term::var("n"), Term::cnst("NASA")],
            ),
            Atom::new(
                "like",
                vec![Term::var("p"), Term::var("m"), Term::cnst("movie")],
            ),
        ];
        let matches =
            enumerate_homomorphisms(&atoms, &rels, &Assignment::new(), MatchLimit::AtMost(100))
                .unwrap();
        assert_eq!(matches.len(), 2);
        let liked: BTreeSet<i64> = matches.iter().map(|m| m["m"].as_int().unwrap()).collect();
        assert_eq!(liked, [10i64, 12].into_iter().collect());
    }

    #[test]
    fn initial_assignment_restricts_matches() {
        let db = movie_instance();
        let rels = relations(&db);
        let atoms = vec![va("rating", &["m", "r"])];
        let mut initial = Assignment::new();
        initial.insert("m".to_string(), Value::int(10));
        let matches =
            enumerate_homomorphisms(&atoms, &rels, &initial, MatchLimit::AtMost(100)).unwrap();
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0]["r"], Value::int(5));
        assert_eq!(matches[0]["m"], Value::int(10), "initial bindings survive");
    }

    #[test]
    fn repeated_variable_within_atom() {
        let db = movie_instance();
        let rels = relations(&db);
        // like(p, p, t): pid must equal the liked id — no such tuple exists.
        let atoms = vec![va("like", &["p", "p", "t"])];
        let matches =
            enumerate_homomorphisms(&atoms, &rels, &Assignment::new(), MatchLimit::AtMost(100))
                .unwrap();
        assert!(matches.is_empty());
    }

    #[test]
    fn first_limit_short_circuits() {
        let db = movie_instance();
        let rels = relations(&db);
        let atoms = vec![va("rating", &["m", "r"])];
        let matches =
            enumerate_homomorphisms(&atoms, &rels, &Assignment::new(), MatchLimit::First).unwrap();
        assert_eq!(matches.len(), 1);
        assert!(has_homomorphism(&atoms, &rels, &Assignment::new()).unwrap());
    }

    #[test]
    fn at_most_limit_enforced() {
        let db = movie_instance();
        let rels = relations(&db);
        let atoms = vec![va("rating", &["m", "r"])];
        assert!(matches!(
            enumerate_homomorphisms(&atoms, &rels, &Assignment::new(), MatchLimit::AtMost(1)),
            Err(QueryError::BudgetExceeded(_))
        ));
    }

    #[test]
    fn unknown_relation_and_arity_errors() {
        let db = movie_instance();
        let rels = relations(&db);
        assert!(enumerate_homomorphisms(
            &[va("nope", &["x"])],
            &rels,
            &Assignment::new(),
            MatchLimit::First
        )
        .is_err());
        assert!(enumerate_homomorphisms(
            &[va("rating", &["x"])],
            &rels,
            &Assignment::new(),
            MatchLimit::First
        )
        .is_err());
    }

    #[test]
    fn empty_atom_list_yields_trivial_match() {
        let db = movie_instance();
        let rels = relations(&db);
        let matches =
            enumerate_homomorphisms(&[], &rels, &Assignment::new(), MatchLimit::AtMost(10))
                .unwrap();
        assert_eq!(matches.len(), 1);
        assert!(matches[0].is_empty());
    }

    #[test]
    fn shared_cache_is_hit_on_repeated_runs() {
        let db = movie_instance();
        let rels = relations(&db);
        let atoms = vec![
            Atom::new(
                "person",
                vec![Term::var("p"), Term::var("n"), Term::cnst("NASA")],
            ),
            Atom::new(
                "like",
                vec![Term::var("p"), Term::var("m"), Term::cnst("movie")],
            ),
        ];
        let cache = IndexCache::new();
        let first = enumerate_homomorphisms_cached(
            &atoms,
            &rels,
            &Assignment::new(),
            MatchLimit::AtMost(100),
            &cache,
        )
        .unwrap();
        let misses_after_first = cache.misses();
        assert!(misses_after_first >= 2, "each atom builds one index");
        for _ in 0..5 {
            let again = enumerate_homomorphisms_cached(
                &atoms,
                &rels,
                &Assignment::new(),
                MatchLimit::AtMost(100),
                &cache,
            )
            .unwrap();
            assert_eq!(again, first);
        }
        assert_eq!(
            cache.misses(),
            misses_after_first,
            "repeat runs never rebuild"
        );
        assert!(cache.hits() >= 10);
    }

    #[test]
    fn visitor_run_short_circuits_without_materialising() {
        let db = movie_instance();
        let rels = relations(&db);
        let atoms = vec![va("rating", &["m", "r"])];
        let cache = IndexCache::new();
        let search = HomSearch::compile(&atoms, &rels, &Assignment::new(), &cache).unwrap();
        let mut seen = 0usize;
        search
            .run(|m| {
                assert!(m.get("m").is_some() && m.get("r").is_some());
                assert!(m.get("nope").is_none());
                seen += 1;
                if seen == 2 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        assert_eq!(seen, 2, "break stops the enumeration early");
    }

    fn graph_db() -> bqr_data::Database {
        let schema = bqr_data::DatabaseSchema::with_relations(&[("e", &["s", "d"])]).unwrap();
        let mut db = bqr_data::Database::empty(schema);
        for (a, b) in [
            (0, 1),
            (1, 2),
            (2, 0),
            (0, 3),
            (3, 4),
            (4, 0),
            (1, 3),
            (3, 1),
            (2, 2),
            (5, 5),
        ] {
            db.insert("e", bqr_data::tuple![a, b]).unwrap();
        }
        db
    }

    fn both_engines(
        atoms: &[Atom],
        rels: &BTreeMap<String, &Relation>,
        initial: &Assignment,
    ) -> (BTreeSet<Assignment>, BTreeSet<Assignment>) {
        let slot = enumerate_homomorphisms(atoms, rels, initial, MatchLimit::AtMost(10_000))
            .unwrap()
            .into_iter()
            .collect();
        let naive =
            reference::enumerate_homomorphisms(atoms, rels, initial, MatchLimit::AtMost(10_000))
                .unwrap()
                .into_iter()
                .collect();
        (slot, naive)
    }

    #[test]
    fn cyclic_queries_agree_with_reference() {
        let db = graph_db();
        let rels = relations(&db);
        let triangle = vec![
            va("e", &["x", "y"]),
            va("e", &["y", "z"]),
            va("e", &["z", "x"]),
        ];
        let (slot, naive) = both_engines(&triangle, &rels, &Assignment::new());
        assert!(!slot.is_empty(), "the graph contains triangles");
        assert_eq!(slot, naive);

        // 4-cycle, with and without an initial binding.
        let square = vec![
            va("e", &["a", "b"]),
            va("e", &["b", "c"]),
            va("e", &["c", "d"]),
            va("e", &["d", "a"]),
        ];
        let (slot, naive) = both_engines(&square, &rels, &Assignment::new());
        assert_eq!(slot, naive);
        let mut initial = Assignment::new();
        initial.insert("a".to_string(), Value::int(0));
        let (slot, naive) = both_engines(&square, &rels, &initial);
        assert_eq!(slot, naive);
    }

    #[test]
    fn repeated_variables_and_constant_atoms_agree_with_reference() {
        let db = graph_db();
        let rels = relations(&db);
        // Triangle plus a self-loop atom on one of its variables (repeated
        // variable within an atom) plus an all-constant existence check.
        let atoms = vec![
            va("e", &["x", "y"]),
            va("e", &["y", "z"]),
            va("e", &["z", "x"]),
            va("e", &["z", "z"]),
            Atom::new("e", vec![Term::cnst(0), Term::cnst(1)]),
        ];
        let (slot, naive) = both_engines(&atoms, &rels, &Assignment::new());
        assert_eq!(slot, naive);
        let zs: BTreeSet<Value> = slot.iter().map(|m| m["z"].clone()).collect();
        assert_eq!(
            zs,
            [Value::int(2), Value::int(5)].into_iter().collect(),
            "nodes 2 and 5 are the self-looped triangle corners"
        );

        // The all-constant filter can also be unsatisfiable.
        let atoms = vec![
            va("e", &["x", "y"]),
            va("e", &["y", "z"]),
            va("e", &["z", "x"]),
            Atom::new("e", vec![Term::cnst(7), Term::cnst(7)]),
        ];
        let (slot, naive) = both_engines(&atoms, &rels, &Assignment::new());
        assert!(slot.is_empty());
        assert_eq!(slot, naive);
    }

    #[test]
    fn never_interned_constants_compile_to_an_unsatisfiable_search() {
        let db = graph_db();
        let rels = relations(&db);
        // A constant value no relation (or other code path) has ever
        // interned: compilation proves emptiness without running a search,
        // and without minting a pool id for the constant.
        let ghost = Value::str("hom-test-never-interned-constant-3b1f");
        let atoms = vec![
            va("e", &["x", "y"]),
            va("e", &["y", "z"]),
            va("e", &["z", "x"]),
            Atom::new("e", vec![Term::var("x"), Term::Const(ghost.clone())]),
        ];
        let cache = IndexCache::new();
        let search = HomSearch::compile(&atoms, &rels, &Assignment::new(), &cache).unwrap();
        let mut n = 0usize;
        search
            .run(|_| {
                n += 1;
                ControlFlow::Continue(())
            })
            .unwrap();
        assert_eq!(n, 0);
        assert_eq!(
            bqr_data::ValueId::lookup(&ghost),
            None,
            "compilation must not mint ids for unmatched constants"
        );
    }

    #[test]
    fn compiled_plans_are_deterministic() {
        let db = graph_db();
        let rels = relations(&db);
        let atoms = vec![
            va("e", &["x", "y"]),
            va("e", &["y", "z"]),
            va("e", &["z", "x"]),
        ];
        let cache = IndexCache::new();
        let first = HomSearch::compile(&atoms, &rels, &Assignment::new(), &cache)
            .unwrap()
            .atom_order()
            .to_vec();
        for _ in 0..5 {
            let again = HomSearch::compile(&atoms, &rels, &Assignment::new(), &cache)
                .unwrap()
                .atom_order()
                .to_vec();
            assert_eq!(again, first, "same query, same stats, same plan");
        }
    }

    #[test]
    fn slot_engine_agrees_with_reference_on_fixture_queries() {
        let db = movie_instance();
        let rels = relations(&db);
        let cases: Vec<Vec<Atom>> = vec![
            vec![va("rating", &["m", "r"])],
            vec![va("like", &["p", "p", "t"])],
            vec![
                Atom::new(
                    "person",
                    vec![Term::var("p"), Term::var("n"), Term::cnst("NASA")],
                ),
                Atom::new(
                    "like",
                    vec![Term::var("p"), Term::var("m"), Term::cnst("movie")],
                ),
                va("rating", &["m", "r"]),
            ],
            vec![],
        ];
        for atoms in cases {
            let slot: BTreeSet<Assignment> = enumerate_homomorphisms(
                &atoms,
                &rels,
                &Assignment::new(),
                MatchLimit::AtMost(1000),
            )
            .unwrap()
            .into_iter()
            .collect();
            let naive: BTreeSet<Assignment> = reference::enumerate_homomorphisms(
                &atoms,
                &rels,
                &Assignment::new(),
                MatchLimit::AtMost(1000),
            )
            .unwrap()
            .into_iter()
            .collect();
            assert_eq!(slot, naive, "engines disagree on {atoms:?}");
        }
    }
}
