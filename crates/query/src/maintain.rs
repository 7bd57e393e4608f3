//! Delta-driven (semi-naive) maintenance of materialised view extents.
//!
//! Given the extents materialised over the previous instance and the exact
//! per-relation write delta of a mutation ([`DeltaLog`]), [`maintain`]
//! produces the extents of the new instance without re-evaluating views
//! whose input relations did not change — and for CQ views it re-derives
//! only the tuples that have at least one *delta-atom binding*, i.e. a
//! derivation using a changed base tuple:
//!
//! * **Insertions** — for every inserted tuple `t` and every atom of the
//!   view body over `t`'s relation, bind the atom to `t` and join the rest
//!   of the body to it over the new instance.  Everything that derives is
//!   `ΔV⁺`; nothing else can be new, because any derivation of a genuinely
//!   new view tuple must use at least one inserted base tuple.
//! * **Deletions** — the DRed over-delete/re-derive split: binding removed
//!   tuples the same way *over the old instance* yields the candidate set
//!   (every extent tuple that had a derivation through a removed base
//!   tuple); each candidate still in the extent is then re-checked for an
//!   alternative derivation over the new instance — the body with the head
//!   bound to the candidate, stopped at its first match — and deleted only
//!   when none exists.
//!
//! # What a delta tuple costs
//!
//! Each of those joins runs a [`DeltaPlan`]: a chain of probes whose order
//! is fixed by the view's syntax alone — after the seed (the Δ tuple, or the
//! candidate) is bound, the remaining atoms are visited most-bound-first,
//! and each step looks up one relation on the positions bound so far and
//! binds the rest.  No planner runs, no statistics are read, nothing is
//! compiled per tuple.  A step is served by the relation version itself:
//!
//! * bound positions that lead the schema (`pid` of `person`, `mid` of
//!   `movie`, `pid` of `like`), any further bound position being a constant
//!   of the view, walk a [`Relation::prefix_range`] of the sorted storage:
//!   `O(log |R| + matches)`, no memory, nothing to maintain;
//! * any other bound positions (`like` by `id`, to re-derive a movie) probe
//!   a [`Relation::keyed_index`]: `O(1 + matches)`.  The index is built by
//!   the first write that needs it — one `O(|R|)` pass over the stored id
//!   rows, paid once per relation and key — and from then on every write to
//!   the relation carries it forward in `O(#shards + |groups| / #shards)`,
//!   whether or not that write's plans probed it;
//! * a step with **no** bound position — an atom sharing no variable with
//!   anything bound before it, i.e. a cross product in the view — degrades
//!   to a scan of its relation, once per binding reaching it.  That is
//!   inherent: the view's own output is that large.
//!
//! A plan runs on interned ids, as the relations store them: the view's
//! constants are interned once, when the plan is built; its slots hold
//! [`ValueId`]s; a prefix walk and a keyed probe hand their stored id rows
//! straight to unification, which compares integers.  A value is resolved
//! only when a head tuple is emitted.
//!
//! So a delta tuple costs `O(Σ matches)` along its chain, independent of
//! `|D|` — for an acyclic body like `V1`'s, a handful of rows.
//! [`maintain_counting`] reports the probes and rows as [`FetchStats`].
//!
//! UCQ views are maintained one CQ disjunct at a time against the
//! per-disjunct extents tracked in [`MaterializedViews`]: a disjunct whose
//! atoms mention no touched relation is carried over as a clone (same
//! contents, same storage — no evaluation at all), touched disjuncts run
//! the semi-naive CQ maintenance above, and the union extent is then
//! patched from the per-disjunct changes — an insert joins the union
//! outright, a removal leaves it only when no other disjunct still derives
//! the tuple.
//!
//! Views whose definitions are genuinely non-CQ/UCQ (FO), or that read a
//! relation whose delta was lost ([`bqr_data::RelationChange::Unknown`]),
//! fall back to full re-materialisation *of that view only*, through the
//! naive evaluator — and even then the previous extent relation (with its
//! epoch) is reused whenever the recomputed contents come out identical, so
//! what is kept per epoch upstream — the extent's keyed indexes, the
//! searches' cached indexes — is rebuilt only after genuine content changes.
//!
//! Untouched extents are returned as clones of the previous ones: same
//! contents, same epoch, shared storage.

use crate::atom::{Atom, Term};
use crate::cq::ConjunctiveQuery;
use crate::views::{MaterializedViews, ViewDefinition, ViewSet};
use crate::Result;
use bqr_data::delta::{DeltaLog, RelationDelta};
use bqr_data::{Database, FetchStats, Relation, RelationSchema, Tuple, ValueId};
use std::collections::{BTreeMap, BTreeSet};

/// Maintain every extent of `views` across one mutation: `previous` are the
/// extents over `old_db`, and `new_db = old_db + delta`.  The result is
/// bit-identical (contents *and*, for unchanged extents, epochs) to what
/// `views.materialize(new_db)` would produce content-wise, at `O(|Δ|)` cost
/// for exact deltas over CQ views.
pub fn maintain(
    views: &ViewSet,
    previous: &MaterializedViews,
    old_db: &Database,
    new_db: &Database,
    delta: &DeltaLog,
) -> Result<MaterializedViews> {
    let mut uncounted = FetchStats::new();
    maintain_counting(views, previous, old_db, new_db, delta, &mut uncounted)
}

/// [`maintain`], accounting the work of the exact-delta path in `stats`:
/// every keyed or prefix probe a [`DeltaPlan`] issues is one `fetch_call`,
/// every row it goes on to visit one fetched tuple, and every row visited by
/// a step that had to scan one scanned tuple.  (Re-materialisations are not
/// counted: they evaluate the whole view.)
pub fn maintain_counting(
    views: &ViewSet,
    previous: &MaterializedViews,
    old_db: &Database,
    new_db: &Database,
    delta: &DeltaLog,
    stats: &mut FetchStats,
) -> Result<MaterializedViews> {
    bqr_data::faults::check(bqr_data::faults::sites::VIEW_MAINTAIN)?;
    let mut out = MaterializedViews::empty();
    for (name, def) in views.iter() {
        let touched = def.relation_names().iter().any(|r| delta.touches(r));
        let exact = def
            .relation_names()
            .iter()
            .all(|r| !delta.touches(r) || delta.exact(r).is_some());
        match (def, previous.extent(name)) {
            // Delta-relevance pre-check, shared by every definition kind:
            // a view reading only untouched relations keeps its extent
            // object (and disjunct extents) without any evaluation.
            (_, Some(prev)) if !touched => match previous.disjuncts(name) {
                Some(parts) => out.insert_with_disjuncts(name, prev.clone(), parts.to_vec()),
                None => out.insert(name, prev.clone()),
            },
            (ViewDefinition::Cq(cq), Some(prev)) if exact => {
                let change = maintain_cq_tracked(cq, prev, old_db, new_db, delta, stats)?;
                out.insert(name, change.extent);
            }
            (ViewDefinition::Ucq(ucq), Some(prev)) if exact => {
                let parts = previous.disjuncts(name);
                let (extent, parts) = maintain_ucq(ucq, prev, parts, old_db, new_db, delta, stats)?;
                out.insert_with_disjuncts(name, extent, parts);
            }
            // Genuinely non-CQ FO view, a lost (wholesale-replacement)
            // delta, or no previous extent to start from: re-evaluate this
            // one view from scratch.
            (_, prev) => {
                let parts = previous.disjuncts(name);
                rematerialize_into(&mut out, name, def, new_db, prev, parts)?;
            }
        }
    }
    Ok(out)
}

/// Evaluate one view from scratch over `db` into `out`, reusing the previous
/// extent relations — the view's, and a UCQ view's per-disjunct ones —
/// whose contents come out unchanged.  UCQ views are evaluated per disjunct,
/// so exact deltas can resume per-disjunct maintenance afterwards.  With no
/// previous extents this is how a view is first materialised.
pub(crate) fn rematerialize_into(
    out: &mut MaterializedViews,
    name: &str,
    def: &ViewDefinition,
    db: &Database,
    prev: Option<&Relation>,
    prev_disjuncts: Option<&[Relation]>,
) -> Result<()> {
    match def {
        ViewDefinition::Ucq(ucq) => {
            let (extent, parts) = rematerialize_ucq(name, ucq, db, prev, prev_disjuncts)?;
            out.insert_with_disjuncts(name, extent, parts);
        }
        _ => out.insert(name, rematerialize(name, def, db, prev)?),
    }
    Ok(())
}

/// The schema extents of the view `name` are stored under.
fn extent_schema(name: &str, arity: usize) -> Result<RelationSchema> {
    let attrs: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    Ok(RelationSchema::new(name, &attr_refs)?)
}

/// The outcome of one semi-naive CQ maintenance: the new extent plus the
/// tuples that genuinely left and joined it — the per-disjunct change feed
/// UCQ union maintenance consumes.
struct CqChange {
    extent: Relation,
    removed: Vec<Tuple>,
    inserted: Vec<Tuple>,
}

/// One argument position of an atom (or head), as a [`DeltaPlan`] meets it.
#[derive(Debug)]
enum Arg {
    /// A constant of the view, interned when the plan was built: the field
    /// must be it.
    Const(ValueId),
    /// A variable, by slot.  `bound`: some earlier position — of the seed,
    /// of an earlier step, or of this same atom — has given the slot its
    /// value, which the field must equal; otherwise the field gives it one.
    Var { slot: usize, bound: bool },
}

impl Arg {
    /// The id a constant or bound position stands for.
    fn id(&self, slots: &[ValueId]) -> ValueId {
        match *self {
            Arg::Const(id) => id,
            Arg::Var { slot, .. } => slots[slot],
        }
    }
}

/// Match `row` against `args`: constants and bound variables must agree —
/// what `row` cannot join with is `false` — and unbound variables take
/// their ids from it.  `slots` holds the bindings in slot order.  A plan
/// numbers its variables in the order it binds them, so every slot below an
/// unbound variable's is bound on the current path and whatever lies at or
/// above it was left by a path since abandoned: binding truncates to the
/// slot and pushes.
fn unify(args: &[Arg], row: &[ValueId], slots: &mut Vec<ValueId>) -> bool {
    args.iter().zip(row).all(|(arg, &field)| match *arg {
        Arg::Var { slot, bound: false } => {
            slots.truncate(slot);
            slots.push(field);
            true
        }
        ref arg => arg.id(slots) == field,
    })
}

/// How a step finds the rows agreeing with what is bound so far.
#[derive(Debug)]
enum Access {
    /// The first `k` positions are bound: walk that run of the relation's
    /// sorted storage.  `k = 0` — nothing bound at all — is a scan.
    Prefix(usize),
    /// Probe the relation's keyed index on these (bound) positions.
    Keyed(Vec<usize>),
}

/// One probe of a [`DeltaPlan`]: an atom of the body, joined to the
/// bindings made before it.
#[derive(Debug)]
struct Step {
    relation: String,
    args: Vec<Arg>,
    access: Access,
}

/// A view body with one *seed* bound — an atom to a Δ tuple, or the head to
/// a candidate — compiled to a fixed left-deep chain of probes over the
/// remaining atoms.  Pure syntax: building one reads no data.
#[derive(Debug)]
struct DeltaPlan {
    seed: Vec<Arg>,
    steps: Vec<Step>,
    head: Vec<Arg>,
    slots: usize,
}

impl DeltaPlan {
    /// The plan joining `rest` — atoms of `cq` — to a tuple matched against
    /// `seed`: an atom's arguments (`rest` being the other atoms), or the
    /// head's terms (`rest` being the whole body).
    fn new(cq: &ConjunctiveQuery, seed: &[Term], mut rest: Vec<&Atom>) -> Result<DeltaPlan> {
        // Variable → slot, in order of first binding: a variable is bound
        // exactly when it is in the map.
        let mut slots: BTreeMap<&str, usize> = BTreeMap::new();
        fn compile<'q>(
            terms: &'q [Term],
            slots: &mut BTreeMap<&'q str, usize>,
        ) -> Result<Vec<Arg>> {
            let arg = |term: &'q Term| match term {
                Term::Const(value) => Ok(Arg::Const(ValueId::try_intern(value)?)),
                Term::Var(name) => {
                    let fresh = slots.len();
                    let slot = *slots.entry(name).or_insert(fresh);
                    let bound = slot != fresh;
                    Ok(Arg::Var { slot, bound })
                }
            };
            terms.iter().map(arg).collect()
        }
        let seed = compile(seed, &mut slots)?;
        let mut steps = Vec::with_capacity(rest.len());
        while !rest.is_empty() {
            // Most-bound-first; the earliest atom among equals.
            let bound = |atom: &Atom| -> Vec<usize> {
                let is_bound = |t: &Term| t.as_var().is_none_or(|v| slots.contains_key(v));
                let positions = 0..atom.arity();
                positions.filter(|&p| is_bound(&atom.args()[p])).collect()
            };
            let most = |i: &usize| (bound(rest[*i]).len(), std::cmp::Reverse(*i));
            let atom = rest.remove((0..rest.len()).max_by_key(most).unwrap_or(0));
            let bound = bound(atom);
            // The sorted storage serves a bound run of leading positions,
            // when whatever else is bound is a constant to filter on;
            // anything else takes a keyed index on all bound positions.
            let lead = bound.iter().zip(0..).take_while(|(&p, i)| p == *i).count();
            let filtered = bound[lead..].iter().all(|&p| !atom.args()[p].is_var());
            let access = match bound.is_empty() || (lead > 0 && filtered) {
                true => Access::Prefix(lead),
                false => Access::Keyed(bound),
            };
            steps.push(Step {
                relation: atom.relation().to_string(),
                args: compile(atom.args(), &mut slots)?,
                access,
            });
        }
        // Safe queries: every head variable is bound by now.
        Ok(DeltaPlan {
            seed,
            steps,
            head: compile(cq.head(), &mut slots)?,
            slots: slots.len(),
        })
    }

    /// Have `db`'s relations hold the keyed indexes this plan probes.  Asked
    /// of the new instance before the plan runs over the old one: an index
    /// first built on an old version that this very write superseded (a
    /// self-join) stays behind with it, and only what the new version holds
    /// is carried on — to the next write's old version, among others.
    fn index(&self, db: &Database) -> Result<()> {
        for step in &self.steps {
            if let Access::Keyed(positions) = &step.access {
                db.expect_relation(&step.relation)?.keyed_index(positions);
            }
        }
        Ok(())
    }

    /// Join the body to `seed` over `db` and hand every head tuple that
    /// derives to `emit`, until it returns `false`.
    fn run(
        &self,
        db: &Database,
        seed: &Tuple,
        stats: &mut FetchStats,
        emit: &mut dyn FnMut(Tuple) -> Result<bool>,
    ) -> Result<()> {
        // A Δ tuple was stored and a candidate derived from stored ones, so
        // their values are interned; one that is not joins nothing stored.
        let Some(seed) = seed.iter().map(ValueId::lookup).collect::<Option<Vec<_>>>() else {
            return Ok(());
        };
        let mut slots = Vec::with_capacity(self.slots);
        if unify(&self.seed, &seed, &mut slots) {
            self.search(db, 0, &mut slots, stats, emit)?;
        }
        Ok(())
    }

    /// Depth-first over the steps from `depth` on; `false` once `emit` has
    /// asked to stop.
    fn search(
        &self,
        db: &Database,
        depth: usize,
        slots: &mut Vec<ValueId>,
        stats: &mut FetchStats,
        emit: &mut dyn FnMut(Tuple) -> Result<bool>,
    ) -> Result<bool> {
        let Some(step) = self.steps.get(depth) else {
            let head = self.head.iter().map(|arg| arg.id(slots).value());
            return emit(head.collect());
        };
        let relation = db.expect_relation(&step.relation)?;
        match &step.access {
            Access::Prefix(lead) => {
                let prefix: Vec<ValueId> = (0..*lead).map(|p| step.args[p].id(slots)).collect();
                stats.fetch_calls += usize::from(*lead > 0);
                for row in relation.prefix_range(&prefix) {
                    match lead {
                        0 => stats.scanned_tuples += 1,
                        _ => stats.fetched_tuples += 1,
                    }
                    if unify(&step.args, row.ids(), slots)
                        && !self.search(db, depth + 1, slots, stats, emit)?
                    {
                        return Ok(false);
                    }
                }
            }
            Access::Keyed(positions) => {
                stats.fetch_calls += 1;
                // Held by the relation version: built by the first probe
                // ever, carried by every write since.
                let index = relation.keyed_index(positions);
                let key: Vec<ValueId> = positions.iter().map(|&p| step.args[p].id(slots)).collect();
                for row in index.probe(&key).chunks_exact(index.arity()) {
                    stats.fetched_tuples += 1;
                    if unify(&step.args, row, slots)
                        && !self.search(db, depth + 1, slots, stats, emit)?
                    {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }
}

/// Exact semi-naive maintenance of one CQ view extent.
fn maintain_cq_tracked(
    cq: &ConjunctiveQuery,
    prev: &Relation,
    old_db: &Database,
    new_db: &Database,
    delta: &DeltaLog,
    stats: &mut FetchStats,
) -> Result<CqChange> {
    cq.validate(new_db.schema(), &BTreeMap::new())?;
    // Clones share storage and epoch; a net no-op maintenance returns the
    // extent with its epoch intact.
    let mut extent = prev.clone();
    let mut removed = Vec::new();
    let mut inserted = Vec::new();
    // One plan per atom position a Δ tuple can take: that atom is the seed,
    // the other atoms are joined to it.
    let mut plans: Vec<(DeltaPlan, &RelationDelta)> = Vec::new();
    for (i, atom) in cq.atoms().iter().enumerate() {
        let Some(exact) = delta.exact(atom.relation()) else {
            continue;
        };
        let others = cq.atoms().iter().enumerate().filter(|(j, _)| *j != i);
        let others = others.map(|(_, other)| other).collect();
        plans.push((DeltaPlan::new(cq, atom.args(), others)?, exact));
    }

    // DRed phase 1+2: over-delete candidates (derivations through a removed
    // tuple, found over the OLD instance), then re-derive over the new one:
    // the whole body joined to the candidate as the head, and the first
    // derivation found settles it.
    let mut candidates: BTreeSet<Tuple> = BTreeSet::new();
    for (plan, exact) in &plans {
        if !exact.removed.is_empty() {
            plan.index(new_db)?;
        }
        for t in &exact.removed {
            plan.run(old_db, t, stats, &mut |head| {
                candidates.insert(head);
                Ok(true)
            })?;
        }
    }
    let rederive = DeltaPlan::new(cq, cq.head(), cq.atoms().iter().collect())?;
    for candidate in candidates {
        if !extent.contains(&candidate) {
            continue;
        }
        let mut derivable = false;
        rederive.run(new_db, &candidate, stats, &mut |_| {
            derivable = true;
            Ok(false)
        })?;
        if !derivable {
            extent.remove(&candidate)?;
            removed.push(candidate);
        }
    }

    // Insertion phase: every genuinely new view tuple has a derivation
    // through at least one inserted base tuple, so joining the body to each
    // of them over the new instance covers exactly `ΔV⁺`.
    for (plan, exact) in &plans {
        for t in &exact.inserted {
            plan.run(new_db, t, stats, &mut |head| {
                if extent.insert(head.clone())? {
                    inserted.push(head);
                }
                Ok(true)
            })?;
        }
    }
    Ok(CqChange {
        extent,
        removed,
        inserted,
    })
}

/// Exact per-disjunct maintenance of one UCQ view: untouched disjuncts are
/// carried over without evaluation, touched ones run the semi-naive CQ
/// maintenance, and the union extent is patched from the disjunct changes —
/// `O(|ΔV| · #disjuncts)` rather than a re-evaluation of the whole union.
fn maintain_ucq(
    ucq: &crate::ucq::UnionQuery,
    prev: &Relation,
    prev_disjuncts: Option<&[Relation]>,
    old_db: &Database,
    new_db: &Database,
    delta: &DeltaLog,
    stats: &mut FetchStats,
) -> Result<(Relation, Vec<Relation>)> {
    let disjuncts = ucq.disjuncts();
    let Some(prev_parts) = prev_disjuncts.filter(|p| p.len() == disjuncts.len()) else {
        // No per-disjunct state to resume from (extent inserted without
        // tracking): rebuild it, reusing unchanged relations.
        return rematerialize_ucq(prev.name(), ucq, new_db, Some(prev), None);
    };
    let mut parts = Vec::with_capacity(disjuncts.len());
    let mut changes: Vec<(Vec<Tuple>, Vec<Tuple>)> = Vec::new();
    for (cq, prev_part) in disjuncts.iter().zip(prev_parts) {
        // Per-disjunct delta-relevance pre-check: a disjunct over untouched
        // relations keeps its extent (shared storage, no eval).
        if !cq.relation_names().iter().any(|r| delta.touches(r)) {
            parts.push(prev_part.clone());
            continue;
        }
        let change = maintain_cq_tracked(cq, prev_part, old_db, new_db, delta, stats)?;
        parts.push(change.extent);
        changes.push((change.removed, change.inserted));
    }
    // Union maintenance.  Inserts first (a tuple already derived elsewhere
    // is a no-op), then removals guarded by a cross-disjunct derivability
    // check — a tuple one disjunct lost survives while any other disjunct
    // still derives it.  Content-unchanged unions perform no operation at
    // all, so the previous extent's epoch is preserved.
    let mut extent = prev.clone();
    for (_, inserted) in &changes {
        for t in inserted {
            extent.insert(t.clone())?;
        }
    }
    for (removed, _) in &changes {
        for t in removed {
            if parts.iter().all(|p| !p.contains(t)) {
                extent.remove(t)?;
            }
        }
    }
    Ok((extent, parts))
}

/// Evaluate a UCQ view from scratch, one disjunct at a time, reusing the
/// previous union extent — and any previous disjunct extents — whose
/// contents come out unchanged, so their epochs (and shared storage)
/// survive the rebuild.
fn rematerialize_ucq(
    name: &str,
    ucq: &crate::ucq::UnionQuery,
    db: &Database,
    prev: Option<&Relation>,
    prev_disjuncts: Option<&[Relation]>,
) -> Result<(Relation, Vec<Relation>)> {
    let schema = extent_schema(name, ucq.arity())?;
    let mut parts = Vec::with_capacity(ucq.disjuncts().len());
    let mut union: BTreeSet<Tuple> = BTreeSet::new();
    for (i, cq) in ucq.disjuncts().iter().enumerate() {
        let tuples = crate::eval::eval_cq(cq, db, None)?;
        union.extend(tuples.iter().cloned());
        let part = match prev_disjuncts.and_then(|p| p.get(i)) {
            Some(prev_part)
                if prev_part.len() == tuples.len()
                    && tuples.iter().all(|t| prev_part.contains(t)) =>
            {
                prev_part.clone()
            }
            _ => Relation::from_tuples(schema.clone(), tuples)?,
        };
        parts.push(part);
    }
    let extent = match prev {
        Some(prev) if prev.len() == union.len() && union.iter().all(|t| prev.contains(t)) => {
            prev.clone()
        }
        _ => Relation::from_tuples(schema, union)?,
    };
    Ok((extent, parts))
}

/// Evaluate `def` from scratch over `db`.  When `prev` is given and the
/// recomputed contents are identical, the previous extent relation is
/// returned instead — preserving its epoch so downstream epoch-keyed caches
/// stay warm.
fn rematerialize(
    name: &str,
    def: &ViewDefinition,
    db: &Database,
    prev: Option<&Relation>,
) -> Result<Relation> {
    let tuples: Vec<Tuple> = match def {
        ViewDefinition::Cq(q) => crate::eval::eval_cq(q, db, None)?,
        ViewDefinition::Ucq(q) => crate::eval::eval_ucq(q, db, None)?,
        ViewDefinition::Fo(q) => crate::eval::eval_fo(q, db, None)?,
    };
    if let Some(prev) = prev {
        if prev.len() == tuples.len() && tuples.iter().all(|t| prev.contains(t)) {
            return Ok(prev.clone());
        }
    }
    Ok(Relation::from_tuples(
        extent_schema(name, def.arity())?,
        tuples,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cq, parse_ucq};
    use bqr_data::{tuple, DatabaseSchema};

    fn schema() -> DatabaseSchema {
        DatabaseSchema::with_relations(&[
            ("person", &["pid", "name", "affiliation"]),
            ("movie", &["mid", "mname", "studio", "release"]),
            ("rating", &["mid", "rank"]),
            ("like", &["pid", "id", "type"]),
        ])
        .unwrap()
    }

    fn views() -> ViewSet {
        let mut v = ViewSet::empty();
        v.add_cq(
            "V1",
            parse_cq(
                "V1(mid) :- person(xp, xn, 'NASA'), movie(mid, ym, z1, z2), like(xp, mid, 'movie')",
            )
            .unwrap(),
        )
        .unwrap();
        v.add_cq("VR", parse_cq("VR(m, r) :- rating(m, r)").unwrap())
            .unwrap();
        v.add_ucq(
            "VU",
            parse_ucq("VU(m) :- rating(m, 5); VU(m) :- rating(m, 4)").unwrap(),
        )
        .unwrap();
        v
    }

    fn instance() -> Database {
        let mut db = Database::empty(schema());
        db.insert("person", tuple![1, "Ann", "NASA"]).unwrap();
        db.insert("person", tuple![2, "Bob", "ESA"]).unwrap();
        db.insert("movie", tuple![10, "Lucy", "Universal", "2014"])
            .unwrap();
        db.insert("movie", tuple![12, "Her", "WB", "2013"]).unwrap();
        db.insert("rating", tuple![10, 5]).unwrap();
        db.insert("rating", tuple![12, 4]).unwrap();
        db.insert("like", tuple![1, 10, "movie"]).unwrap();
        db.insert("like", tuple![2, 12, "movie"]).unwrap();
        db
    }

    /// Apply `mutate` with delta tracking and return (old, new, log).
    fn mutated(
        mutate: impl FnOnce(&mut Database) -> bqr_data::Result<()>,
    ) -> (Database, Database, DeltaLog) {
        let old = instance();
        let mut new = old.clone();
        new.begin_delta_tracking();
        mutate(&mut new).unwrap();
        let log = new.take_delta(&old);
        (old, new, log)
    }

    fn check_against_full(old: &Database, new: &Database, log: &DeltaLog) {
        let views = views();
        let previous = views.materialize(old).unwrap();
        let maintained = maintain(&views, &previous, old, new, log).unwrap();
        let reference = views.materialize(new).unwrap();
        for name in views.names() {
            assert_eq!(
                maintained.extent(name).unwrap(),
                reference.extent(name).unwrap(),
                "extent `{name}` diverged"
            );
        }
    }

    #[test]
    fn insertions_extend_extents_semi_naively() {
        let (old, new, log) = mutated(|db| {
            db.insert("movie", tuple![13, "Ouija", "Universal", "2014"])?;
            db.insert("like", tuple![1, 13, "movie"])?;
            db.insert("rating", tuple![13, 5])?;
            Ok(())
        });
        check_against_full(&old, &new, &log);
    }

    #[test]
    fn deletions_overdelete_then_rederive() {
        // Removing Ann's like kills V1's only derivation of movie 10;
        // removing rating (12, 4) shrinks VR and VU.
        let (old, new, log) = mutated(|db| {
            db.remove("like", &tuple![1, 10, "movie"])?;
            db.remove("rating", &tuple![12, 4])?;
            Ok(())
        });
        check_against_full(&old, &new, &log);
    }

    #[test]
    fn surviving_alternative_derivations_are_kept() {
        // Two NASA fans like movie 10; dropping one leaves a derivation.
        let old = {
            let mut db = instance();
            db.insert("person", tuple![3, "Cat", "NASA"]).unwrap();
            db.insert("like", tuple![3, 10, "movie"]).unwrap();
            db
        };
        let mut new = old.clone();
        new.begin_delta_tracking();
        new.remove("like", &tuple![1, 10, "movie"]).unwrap();
        let log = new.take_delta(&old);

        let views = views();
        let previous = views.materialize(&old).unwrap();
        let maintained = maintain(&views, &previous, &old, &new, &log).unwrap();
        assert!(maintained.extent("V1").unwrap().contains(&tuple![10]));
        assert_eq!(
            maintained.extent("V1").unwrap(),
            views.materialize(&new).unwrap().extent("V1").unwrap()
        );
    }

    #[test]
    fn untouched_views_keep_their_extent_epochs() {
        let (old, new, log) = mutated(|db| db.insert("rating", tuple![12, 5]).map(drop));
        let views = views();
        let previous = views.materialize(&old).unwrap();
        let maintained = maintain(&views, &previous, &old, &new, &log).unwrap();
        // V1 reads person/movie/like only: same extent object, same epoch.
        assert_eq!(
            maintained.extent("V1").unwrap().epoch(),
            previous.extent("V1").unwrap().epoch()
        );
        // VR and VU read rating and genuinely changed: fresh epochs.
        assert_ne!(
            maintained.extent("VR").unwrap().epoch(),
            previous.extent("VR").unwrap().epoch()
        );
        check_against_full(&old, &new, &log);
    }

    #[test]
    fn touched_but_unchanged_extents_keep_their_epochs_too() {
        // rating (12, 3) changes VR but neither VU (rank ∉ {4, 5}) nor V1.
        let (old, new, log) = mutated(|db| db.insert("rating", tuple![12, 3]).map(drop));
        let views = views();
        let previous = views.materialize(&old).unwrap();
        let maintained = maintain(&views, &previous, &old, &new, &log).unwrap();
        assert_ne!(
            maintained.extent("VR").unwrap().epoch(),
            previous.extent("VR").unwrap().epoch()
        );
        assert_eq!(
            maintained.extent("VU").unwrap().epoch(),
            previous.extent("VU").unwrap().epoch(),
            "UCQ fallback must reuse the previous extent when contents are unchanged"
        );
        check_against_full(&old, &new, &log);
    }

    #[test]
    fn unknown_deltas_fall_back_to_per_view_rematerialisation() {
        let old = instance();
        let mut new = old.clone();
        new.begin_delta_tracking();
        let schema = old.relation("rating").unwrap().schema().clone();
        *new.relation_mut("rating").unwrap() =
            Relation::from_tuples(schema, vec![tuple![10, 5], tuple![12, 5]]).unwrap();
        let log = new.take_delta(&old);
        assert!(log.is_unknown("rating"));
        check_against_full(&old, &new, &log);
    }

    #[test]
    fn an_index_probed_on_a_superseded_version_is_held_by_its_successor() {
        // Over-deleting under a self-join probes `like` by (`id`, `type`)
        // over the old instance — a version of `like` this write superseded.
        let mut v = ViewSet::empty();
        let vs = parse_cq("VS(a, c) :- like(a, m, t), like(c, m, t)").unwrap();
        v.add_cq("VS", vs).unwrap();
        let (old, new, log) = mutated(|db| db.remove("like", &tuple![1, 10, "movie"]).map(drop));
        let previous = v.materialize(&old).unwrap();
        let maintained = maintain(&v, &previous, &old, &new, &log).unwrap();
        let reference = v.materialize(&new).unwrap();
        assert_eq!(maintained.extent("VS"), reference.extent("VS"));
        assert_eq!(maintained.extent("VS").unwrap().len(), 1);
        // The next removal finds it carried, not left behind with `old`.
        let held = |db: &Database| {
            let like = db.relation("like").unwrap();
            like.keyed_index_if_built(&[1, 2]).is_some()
        };
        let mut next = new.clone();
        next.remove("like", &tuple![2, 12, "movie"]).unwrap();
        assert!(held(&old) && held(&new) && held(&next));
    }

    #[test]
    fn repeated_variables_and_constants_bind_exactly() {
        let mut v = ViewSet::empty();
        v.add_cq("VS", parse_cq("VS(m) :- rating(m, m)").unwrap())
            .unwrap();
        let sch = DatabaseSchema::with_relations(&[("rating", &["mid", "rank"])]).unwrap();
        let mut old = Database::empty(sch);
        old.insert("rating", tuple![5, 5]).unwrap();
        old.insert("rating", tuple![1, 2]).unwrap();
        let mut new = old.clone();
        new.begin_delta_tracking();
        new.insert("rating", tuple![7, 7]).unwrap();
        new.insert("rating", tuple![8, 9]).unwrap();
        new.remove("rating", &tuple![5, 5]).unwrap();
        let log = new.take_delta(&old);
        let previous = v.materialize(&old).unwrap();
        let maintained = maintain(&v, &previous, &old, &new, &log).unwrap();
        assert_eq!(
            maintained.extent("VS").unwrap(),
            v.materialize(&new).unwrap().extent("VS").unwrap()
        );
        assert!(maintained.extent("VS").unwrap().contains(&tuple![7]));
        assert!(!maintained.extent("VS").unwrap().contains(&tuple![5]));
    }
}
