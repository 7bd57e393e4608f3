//! Materialisation and delta-driven (semi-naive) maintenance of view
//! extents.
//!
//! A CQ or UCQ view is a list of CQ *rules* — the query of a CQ view, the
//! disjuncts of a UCQ view — and its extent is the union of what its rules
//! derive.  Every job on such an extent is one `DeltaPlan` per rule, the
//! rule body with one *seed* bound; the jobs differ only in the seed:
//!
//! * **Materialisation** — no seed at all: the chain starts with a scan, and
//!   the extent is every head tuple the rules emit.  This is how a view is
//!   first materialised ([`ViewSet::materialize`]) and how the fallbacks
//!   below re-derive one.
//! * **Insertions** — for every inserted tuple `t` and every atom of a rule
//!   over `t`'s relation, bind the atom to `t` and join the rest of the body
//!   to it over the new instance.  Everything that derives is `ΔV⁺`; nothing
//!   else can be new, because any derivation of a genuinely new view tuple
//!   must use at least one inserted base tuple.
//! * **Deletions** — the DRed over-delete/re-derive split: binding removed
//!   tuples the same way *over the old instance* yields the candidate set
//!   (every extent tuple that had a derivation through a removed base
//!   tuple); each candidate still in the extent is then re-checked for an
//!   alternative derivation over the new instance — a rule body with the
//!   head bound to the candidate, stopped at its first match — and deleted
//!   only when *no* rule finds one.  So a UCQ tuple one disjunct lost
//!   survives while another still derives it, and nothing is kept per
//!   disjunct.
//!
//! # What a delta tuple costs
//!
//! Each of those joins runs a `DeltaPlan`: a chain of probes whose order
//! is fixed by the rule's syntax alone — after the seed (the Δ tuple, the
//! candidate, or nothing) is bound, the remaining atoms are visited
//! most-bound-first, and each step looks up one relation on the positions
//! bound so far and binds the rest.  No planner runs, no statistics are
//! read, nothing is compiled per tuple.  A step is served by the relation
//! version itself:
//!
//! * bound positions that lead the schema (`pid` of `person`, `mid` of
//!   `movie`, `pid` of `like`), any further bound position being a constant
//!   of the view, walk a [`Relation::prefix_range`] of the sorted storage:
//!   `O(log |R| + matches)`, no memory, nothing to maintain.  With no
//!   leading position bound that is a scan filtered on the constants — how
//!   a seedless plan starts (`V1` scans `person` for `'NASA'`), and what a
//!   cross product in the view costs per binding reaching it, which is
//!   inherent: the view's own output is that large;
//! * any other bound positions (`like` by `id`, to re-derive a movie) probe
//!   a [`Relation::keyed_index`]: `O(1 + matches)`.  The index is built by
//!   the first plan that needs it — one `O(|R|)` pass over the stored id
//!   rows, paid once per relation and key — and from then on every write to
//!   the relation carries it forward in `O(#shards + |groups| / #shards)`,
//!   whether or not that write's plans probed it.  Under that rule a plan
//!   never indexes a relation on constants alone, so materialising `V1` or
//!   a CDR view builds no keyed index.
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
//! Every delta is exact — a relation the writer assigned wholesale arrives
//! as its diff against the previous version — so a CQ or UCQ view with a
//! previous extent is always maintained by its rules.  Only a view whose
//! definition is genuinely FO, or that has no previous extent, is
//! re-materialised — *that view only*, a CQ or UCQ view by its seedless
//! plans, an FO view through [`crate::eval::eval_fo`] — and even then the
//! previous extent relation (with its epoch) is reused whenever the
//! recomputed contents come out identical, so what is kept per epoch
//! upstream — the extent's keyed indexes, the searches' cached indexes — is
//! rebuilt only after genuine content changes.
//!
//! Untouched extents are returned as clones of the previous ones: same
//! contents, same epoch, shared storage.

use crate::atom::{Atom, Term};
use crate::cq::ConjunctiveQuery;
use crate::views::{ViewDefinition, ViewSet};
use crate::Result;
use bqr_data::delta::{DeltaLog, RelationDelta};
use bqr_data::{Database, FetchStats, MaterializedViews, Relation, RelationSchema, Tuple, ValueId};
use std::collections::{BTreeMap, BTreeSet};

/// Maintain every extent of `views` across one mutation: `previous` are the
/// extents over `old_db`, and `new_db = old_db + delta`.  The result is
/// bit-identical (contents *and*, for unchanged extents, epochs) to what
/// `views.materialize(new_db)` would produce content-wise, at `O(|Δ|)` cost
/// for CQ and UCQ views.
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

/// [`maintain`], accounting the work of the rule path in `stats`:
/// every keyed or prefix probe a `DeltaPlan` issues is one `fetch_call`,
/// every row it goes on to visit one fetched tuple, and every row visited by
/// a step that had to scan one scanned tuple.  (Re-materialisations are not
/// counted: they derive the whole view.)
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
        let extent = match (rules(def), previous.extent(name)) {
            // Delta-relevance pre-check, shared by every definition kind:
            // a view reading only untouched relations keeps its extent
            // object without any evaluation.
            (_, Some(prev)) if !touched => prev.clone(),
            (Some(rules), Some(prev)) => maintain_rules(rules, prev, old_db, new_db, delta, stats)?,
            // An FO view, or no previous extent to start from: re-derive
            // this one view.
            (_, prev) => rematerialize(name, def, new_db, prev)?,
        };
        out.insert(name, extent);
    }
    Ok(out)
}

/// The CQ rules whose union a view's extent is: the query of a CQ view, the
/// disjuncts of a UCQ view.  `None` for an FO view.
fn rules(def: &ViewDefinition) -> Option<&[ConjunctiveQuery]> {
    match def {
        ViewDefinition::Cq(cq) => Some(std::slice::from_ref(cq)),
        ViewDefinition::Ucq(ucq) => Some(ucq.disjuncts()),
        ViewDefinition::Fo(_) => None,
    }
}

/// The schema extents of the view `name` are stored under.
fn extent_schema(name: &str, arity: usize) -> Result<RelationSchema> {
    let attrs: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
    let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    Ok(RelationSchema::new(name, &attr_refs)?)
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
    /// The first `k` positions are bound, and any other bound position is a
    /// constant: walk that run of the relation's sorted storage, filtering
    /// on the constants.  `k = 0` is a scan.
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

/// A rule body with one *seed* bound — an atom to a Δ tuple, the head to a
/// candidate, or nothing, to materialise — compiled to a fixed left-deep
/// chain of probes over the remaining atoms.  Pure syntax: building one
/// reads no data.
#[derive(Debug)]
struct DeltaPlan {
    seed: Vec<Arg>,
    steps: Vec<Step>,
    head: Vec<Arg>,
    slots: usize,
}

impl DeltaPlan {
    /// The plan joining `rest` — atoms of `cq` — to a tuple matched against
    /// `seed`: an atom's arguments (`rest` being the other atoms), the
    /// head's terms, or no terms at all (`rest` being the whole body).
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
            // The sorted storage serves a bound run of leading positions —
            // none at all being a scan — when whatever else is bound is a
            // constant to filter on; anything else takes a keyed index on
            // all bound positions.
            let lead = bound.iter().zip(0..).take_while(|(&p, i)| p == *i).count();
            let access = match bound[lead..].iter().all(|&p| !atom.args()[p].is_var()) {
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
                db.expect_relation(&step.relation)?.keyed_index(positions)?;
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
                let index = relation.keyed_index(positions)?;
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

/// Exact semi-naive maintenance of the extent of a CQ or UCQ view, given as
/// its rules: DRed through every rule, then insertion through every rule.
fn maintain_rules(
    rules: &[ConjunctiveQuery],
    prev: &Relation,
    old_db: &Database,
    new_db: &Database,
    delta: &DeltaLog,
    stats: &mut FetchStats,
) -> Result<Relation> {
    // Clones share storage and epoch; a net no-op maintenance returns the
    // extent with its epoch intact.
    let mut extent = prev.clone();
    // One plan per rule and atom position a Δ tuple can take: that atom is
    // the seed, the rule's other atoms are joined to it.
    let mut plans: Vec<(DeltaPlan, &RelationDelta)> = Vec::new();
    for rule in rules {
        rule.validate(new_db.schema(), &BTreeMap::new())?;
        for (i, atom) in rule.atoms().iter().enumerate() {
            let Some(seeds) = delta.get(atom.relation()) else {
                continue;
            };
            let others = rule.atoms().iter().enumerate().filter(|(j, _)| *j != i);
            let others = others.map(|(_, other)| other).collect();
            plans.push((DeltaPlan::new(rule, atom.args(), others)?, seeds));
        }
    }

    // DRed phase 1+2: over-delete candidates (derivations through a removed
    // tuple, found over the OLD instance), then re-derive over the new one:
    // each rule's whole body joined to the candidate as the head, and the
    // first derivation any rule finds settles it.
    let mut candidates: BTreeSet<Tuple> = BTreeSet::new();
    for (plan, seeds) in &plans {
        if !seeds.removed.is_empty() {
            plan.index(new_db)?;
        }
        for t in &seeds.removed {
            plan.run(old_db, t, stats, &mut |head| {
                candidates.insert(head);
                Ok(true)
            })?;
        }
    }
    let rederive = rules
        .iter()
        .map(|rule| DeltaPlan::new(rule, rule.head(), rule.atoms().iter().collect()));
    let rederive = rederive.collect::<Result<Vec<_>>>()?;
    for candidate in candidates {
        if !extent.contains(&candidate) {
            continue;
        }
        let mut derivable = false;
        for plan in &rederive {
            plan.run(new_db, &candidate, stats, &mut |_| {
                derivable = true;
                Ok(false)
            })?;
            if derivable {
                break;
            }
        }
        if !derivable {
            extent.remove(&candidate)?;
        }
    }

    // Insertion phase: every genuinely new view tuple has a derivation
    // through at least one inserted base tuple, so joining each rule's body
    // to each of them over the new instance covers exactly `ΔV⁺`.
    for (plan, seeds) in &plans {
        for t in &seeds.inserted {
            plan.run(new_db, t, stats, &mut |head| {
                extent.insert(head)?;
                Ok(true)
            })?;
        }
    }
    Ok(extent)
}

/// Derive the extent of `def` over `db` from scratch: a CQ or UCQ view by
/// running every rule's seedless [`DeltaPlan`] once, after validating the
/// rule against `db`'s schema; an FO view through the naive evaluator.
/// When `prev` is given and the contents come out identical, the previous
/// extent relation is returned instead — preserving its epoch so
/// downstream epoch-keyed caches stay warm.
pub(crate) fn rematerialize(
    name: &str,
    def: &ViewDefinition,
    db: &Database,
    prev: Option<&Relation>,
) -> Result<Relation> {
    let tuples: Vec<Tuple> = match def {
        ViewDefinition::Fo(q) => crate::eval::eval_fo(q, db, None)?,
        _ => {
            let mut tuples = BTreeSet::new();
            // A materialisation is no write's work: it goes uncounted.
            let mut uncounted = FetchStats::new();
            for rule in rules(def).into_iter().flatten() {
                rule.validate(db.schema(), &BTreeMap::new())?;
                let plan = DeltaPlan::new(rule, &[], rule.atoms().iter().collect())?;
                plan.run(db, &Tuple::unit(), &mut uncounted, &mut |head| {
                    tuples.insert(head);
                    Ok(true)
                })?;
            }
            tuples.into_iter().collect()
        }
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
    use crate::error::QueryError;
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

    /// What the naive evaluator derives for `def` over `db`.
    fn evaluated(def: &ViewDefinition, db: &Database) -> Vec<Tuple> {
        let tuples = match def {
            ViewDefinition::Cq(q) => crate::eval::eval_cq(q, db, None),
            ViewDefinition::Ucq(q) => crate::eval::eval_ucq(q, db, None),
            ViewDefinition::Fo(q) => crate::eval::eval_fo(q, db, None),
        };
        tuples.unwrap()
    }

    /// Hold every extent of `extents` to the naive evaluator over `db`.
    fn check_against_eval(views: &ViewSet, extents: &MaterializedViews, db: &Database) {
        for (name, def) in views.iter() {
            let extent = extents.extent(name).unwrap();
            let extent: Vec<Tuple> = extent.iter().map(|t| t.to_tuple()).collect();
            assert_eq!(extent, evaluated(def, db), "extent `{name}` diverged");
        }
    }

    fn check_against_full(old: &Database, new: &Database, log: &DeltaLog) {
        let views = views();
        let previous = views.materialize(old).unwrap();
        check_against_eval(&views, &previous, old);
        let maintained = maintain(&views, &previous, old, new, log).unwrap();
        check_against_eval(&views, &maintained, new);
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
        check_against_eval(&views, &maintained, &new);
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
            "a UCQ extent whose contents did not change keeps its epoch"
        );
        check_against_full(&old, &new, &log);
    }

    #[test]
    fn a_wholesale_replacement_is_maintained_from_its_diff() {
        let old = instance();
        let mut new = old.clone();
        new.begin_delta_tracking();
        let schema = old.relation("rating").unwrap().schema().clone();
        *new.relation_mut("rating").unwrap() =
            Relation::from_tuples(schema, vec![tuple![10, 5], tuple![12, 5]]).unwrap();
        let log = new.take_delta(&old);
        let diff = log.get("rating").expect("rating changed");
        assert_eq!(diff.inserted.iter().collect::<Vec<_>>(), [&tuple![12, 5]]);
        assert_eq!(diff.removed.iter().collect::<Vec<_>>(), [&tuple![12, 4]]);
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
        check_against_eval(&v, &maintained, &new);
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
        check_against_eval(&v, &previous, &old);
        let maintained = maintain(&v, &previous, &old, &new, &log).unwrap();
        check_against_eval(&v, &maintained, &new);
        assert!(maintained.extent("VS").unwrap().contains(&tuple![7]));
        assert!(!maintained.extent("VS").unwrap().contains(&tuple![5]));
    }

    /// A nullary atom is a guard: the view holds every rating while `open()`
    /// holds and nothing while it does not, materialised or maintained.
    #[test]
    fn a_nullary_atom_holding_and_not_holding() {
        let mut v = ViewSet::empty();
        v.add_cq("VN", parse_cq("VN(m) :- rating(m, r), open()").unwrap())
            .unwrap();
        v.add_cq("VB", parse_cq("VB() :- open()").unwrap()).unwrap();
        let sch =
            DatabaseSchema::with_relations(&[("rating", &["mid", "rank"]), ("open", &[])]).unwrap();
        let mut closed = Database::empty(sch);
        closed.insert("rating", tuple![10, 5]).unwrap();
        closed.insert("rating", tuple![12, 4]).unwrap();
        let shut = v.materialize(&closed).unwrap();
        check_against_eval(&v, &shut, &closed);
        assert_eq!(shut.total_tuples(), 0);

        let mut open = closed.clone();
        open.begin_delta_tracking();
        open.insert("open", Tuple::unit()).unwrap();
        let log = open.take_delta(&closed);
        let opened = maintain(&v, &shut, &closed, &open, &log).unwrap();
        check_against_eval(&v, &opened, &open);
        assert_eq!(opened.extent("VN").unwrap().len(), 2);
        assert!(opened.extent("VB").unwrap().contains(&Tuple::unit()));
        assert_eq!(v.materialize(&open).unwrap(), opened);

        let mut shut_again = open.clone();
        shut_again.begin_delta_tracking();
        shut_again.remove("open", &Tuple::unit()).unwrap();
        let log = shut_again.take_delta(&open);
        let closed_again = maintain(&v, &opened, &open, &shut_again, &log).unwrap();
        check_against_eval(&v, &closed_again, &shut_again);
        assert_eq!(closed_again.total_tuples(), 0);
    }

    /// A view over an empty relation materialises empty, and its first
    /// tuples arrive through maintenance.
    #[test]
    fn a_view_over_an_empty_relation() {
        let empty = Database::empty(schema());
        let views = views();
        let extents = views.materialize(&empty).unwrap();
        check_against_eval(&views, &extents, &empty);
        assert_eq!(extents.total_tuples(), 0);
        let mut rated = empty.clone();
        rated.begin_delta_tracking();
        rated.insert("rating", tuple![10, 5]).unwrap();
        let log = rated.take_delta(&empty);
        let maintained = maintain(&views, &extents, &empty, &rated, &log).unwrap();
        check_against_eval(&views, &maintained, &rated);
        assert_eq!(maintained.total_tuples(), 2, "VR and VU");
    }

    /// Materialising over a schema that lacks a view's relation, or gives it
    /// another arity, is a typed error for a CQ view and a UCQ view alike.
    #[test]
    fn materialising_over_a_mismatched_schema_is_a_typed_error() {
        let mut cq = ViewSet::empty();
        cq.add_cq("VR", parse_cq("VR(m, r) :- rating(m, r)").unwrap())
            .unwrap();
        let mut ucq = ViewSet::empty();
        let union = parse_ucq("VU(m) :- rating(m, 5); VU(m) :- rating(m, 4)").unwrap();
        ucq.add_ucq("VU", union).unwrap();
        let missing = DatabaseSchema::with_relations(&[("movie", &["mid"])]).unwrap();
        let narrow = DatabaseSchema::with_relations(&[("rating", &["mid"])]).unwrap();
        for views in [&cq, &ucq] {
            let err = views.materialize(&Database::empty(missing.clone()));
            assert!(
                matches!(err, Err(QueryError::UnknownRelation(ref r)) if r == "rating"),
                "{err:?}"
            );
            let err = views.materialize(&Database::empty(narrow.clone()));
            assert!(
                matches!(
                    err,
                    Err(QueryError::AtomArity { ref relation, expected: 1, actual: 2 })
                        if relation == "rating"
                ),
                "{err:?}"
            );
        }
    }
}
