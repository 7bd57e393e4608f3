//! Canonical structural fingerprints for query plans.
//!
//! A [`PlanFingerprint`] is a 128-bit digest of a plan's **shape**: its
//! executable structure — node kinds, column indices, view names and access
//! constraints — with every constant replaced by a slot marker.  It is the
//! whole of the [`crate::prepared::PipelineCache`] key: two plans with
//! equal fingerprints differ at most in their constants (and in `ρ`
//! placement), compile to the same operators, and share one cached pipeline,
//! each executing it with its own constants bound to the slots.
//!
//! Why leaving the constants out needs no argument at this layer: a constant
//! reaches a compiled pipeline in exactly two places, a `Const` leaf and a
//! `Col{Eq,Ne}Const` selection condition, and compilation never looks at its
//! value — it numbers the views and constraints named and picks the join
//! strategy from everything else.  So slots are per *occurrence* (two
//! occurrences of `3` are two slots that happen to be bound alike), numbered in
//! [`crate::node::PlanNode::constant_slots`] order, and any binding of them
//! is a plan the compiled operators evaluate correctly.  Contrast the
//! engine's analysis memo (`bqr-engine`), whose key must preserve which
//! constants are equal to each other and to the views' constants, because the
//! *checker* does look.
//!
//! Canonicalisation rules:
//!
//! * the digest depends only on structure, never on allocation identity —
//!   `clone()`d plans, plans rebuilt from scratch, and plans shared behind an
//!   `Arc` all fingerprint equal;
//! * `ρ` (rename) nodes are **transparent**: with positional columns a
//!   renaming never changes the data, and the compiled executor erases it
//!   (see [`crate::exec`]), so plans that differ only in `ρ` placement share
//!   one fingerprint — and therefore one cached pipeline.  (A `ρ` can block
//!   the σ-over-view fusion, yielding a *differently shaped* pipeline, but
//!   the two shapes are execution-equivalent down to the pinned `FetchStats`
//!   accounting, which `tests/prepared_cache.rs` holds them to; `ρ` holds no
//!   constant, so the slot numbering is the same either way.)
//! * everything else is hashed positionally, in a prefix-free encoding
//!   (every variable-length field is preceded by its length), so distinct
//!   structures cannot collide by concatenation ambiguity.
//!
//! The digest itself is FNV-1a/128 — not cryptographic, but 128 bits of a
//! well-dispersed hash make accidental collisions between the handful of
//! distinct shapes a process ever prepares astronomically unlikely, with no
//! dependencies and deterministic output across platforms and runs.

use crate::node::{PlanNode, QueryPlan, SelectCondition};
use std::fmt;

/// A canonical 128-bit fingerprint of a [`QueryPlan`]'s shape (its structure
/// with the constants left out).
///
/// Obtain one with [`fingerprint`]; use it as a cache key (it is `Copy`,
/// `Eq`, `Hash` and `Ord`) or render it with `Display` (32 hex digits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanFingerprint(u128);

impl PlanFingerprint {
    /// The raw 128-bit digest.
    pub fn as_u128(&self) -> u128 {
        self.0
    }
}

impl fmt::Display for PlanFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Compute the canonical shape fingerprint of a plan.  Pure function of the
/// plan tree minus its constants (see the module docs for the rules).
pub fn fingerprint(plan: &QueryPlan) -> PlanFingerprint {
    let mut h = Fnv128::new();
    hash_node(plan.root(), &mut h);
    PlanFingerprint(h.finish())
}

/// FNV-1a with a 128-bit state (the parameters of the reference FNV-128).
struct Fnv128 {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

impl Fnv128 {
    fn new() -> Self {
        Fnv128 {
            state: FNV128_OFFSET,
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.write(&[b]);
    }

    fn write_usize(&mut self, n: usize) {
        self.write(&(n as u64).to_le_bytes());
    }

    /// A length-prefixed string (prefix-free across adjacent fields).
    fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    fn finish(&self) -> u128 {
        self.state
    }
}

/// Node tags.  `Rename` deliberately has none: it is erased.
mod tag {
    pub const CONST: u8 = 1;
    pub const VIEW: u8 = 2;
    pub const FETCH: u8 = 3;
    pub const PROJECT: u8 = 4;
    pub const SELECT: u8 = 5;
    pub const PRODUCT: u8 = 6;
    pub const UNION: u8 = 7;
    pub const DIFFERENCE: u8 = 8;
    pub const COND_EQ_CONST: u8 = 16;
    pub const COND_NE_CONST: u8 = 17;
    pub const COND_EQ_COL: u8 = 18;
    pub const COND_NE_COL: u8 = 19;
    /// Stands where a constant's value would: the value is not part of the
    /// shape.
    pub const SLOT: u8 = 24;
}

fn hash_condition(c: &SelectCondition, h: &mut Fnv128) {
    match c {
        SelectCondition::ColEqConst(col, _) => {
            h.write_u8(tag::COND_EQ_CONST);
            h.write_usize(*col);
            h.write_u8(tag::SLOT);
        }
        SelectCondition::ColNeConst(col, _) => {
            h.write_u8(tag::COND_NE_CONST);
            h.write_usize(*col);
            h.write_u8(tag::SLOT);
        }
        SelectCondition::ColEqCol(a, b) => {
            h.write_u8(tag::COND_EQ_COL);
            h.write_usize(*a);
            h.write_usize(*b);
        }
        SelectCondition::ColNeCol(a, b) => {
            h.write_u8(tag::COND_NE_COL);
            h.write_usize(*a);
            h.write_usize(*b);
        }
    }
}

fn hash_node(node: &PlanNode, h: &mut Fnv128) {
    match node {
        PlanNode::Const(t) => {
            h.write_u8(tag::CONST);
            h.write_usize(t.arity());
            for _ in t.iter() {
                h.write_u8(tag::SLOT);
            }
        }
        PlanNode::View { name, arity } => {
            h.write_u8(tag::VIEW);
            h.write_str(name);
            h.write_usize(*arity);
        }
        PlanNode::Fetch {
            input,
            constraint,
            key_columns,
        } => {
            h.write_u8(tag::FETCH);
            // The constraint is hashed by content (relation, X, Y, N): two
            // structurally equal constraints drive the same fetch.
            h.write_str(constraint.relation());
            h.write_usize(constraint.x().len());
            for a in constraint.x() {
                h.write_str(a);
            }
            h.write_usize(constraint.y().len());
            for a in constraint.y() {
                h.write_str(a);
            }
            h.write_usize(constraint.n());
            h.write_usize(key_columns.len());
            for &c in key_columns {
                h.write_usize(c);
            }
            hash_node(input, h);
        }
        PlanNode::Project { input, columns } => {
            h.write_u8(tag::PROJECT);
            h.write_usize(columns.len());
            for &c in columns {
                h.write_usize(c);
            }
            hash_node(input, h);
        }
        PlanNode::Select { input, conditions } => {
            h.write_u8(tag::SELECT);
            h.write_usize(conditions.len());
            for c in conditions {
                hash_condition(c, h);
            }
            hash_node(input, h);
        }
        // ρ is transparent: positional renaming never changes the data and
        // the compiled executor erases it.
        PlanNode::Rename { input } => hash_node(input, h),
        PlanNode::Product(a, b) => {
            h.write_u8(tag::PRODUCT);
            hash_node(a, h);
            hash_node(b, h);
        }
        PlanNode::Union(a, b) => {
            h.write_u8(tag::UNION);
            hash_node(a, h);
            hash_node(b, h);
        }
        PlanNode::Difference(a, b) => {
            h.write_u8(tag::DIFFERENCE);
            hash_node(a, h);
            hash_node(b, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Plan;
    use bqr_data::{AccessConstraint, Value};

    fn phi() -> AccessConstraint {
        AccessConstraint::new("movie", &["studio", "release"], &["mid"], 100).unwrap()
    }

    fn sample() -> QueryPlan {
        Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
            .fetch(phi(), vec![0, 1])
            .select_eq_const(2, 10)
            .project(vec![2])
            .build()
            .unwrap()
    }

    #[test]
    fn equal_structure_equal_fingerprint() {
        let a = sample();
        let b = sample();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(fingerprint(&a), fingerprint(&a.clone()));
        let rendered = fingerprint(&a).to_string();
        assert_eq!(rendered.len(), 32, "{rendered}");
        assert_eq!(fingerprint(&a).as_u128(), fingerprint(&b).as_u128());
    }

    #[test]
    fn structural_differences_change_the_fingerprint() {
        let base = fingerprint(&sample());
        // One constant more is a different shape.
        let other = Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
            .fetch(phi(), vec![0, 1])
            .select(vec![
                SelectCondition::ColEqConst(2, Value::int(10)),
                SelectCondition::ColEqConst(2, Value::int(10)),
            ])
            .project(vec![2])
            .build()
            .unwrap();
        assert_ne!(base, fingerprint(&other));
        // Equality against a constant and inequality against it differ.
        let other = Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
            .fetch(phi(), vec![0, 1])
            .select(vec![SelectCondition::ColNeConst(2, Value::int(10))])
            .project(vec![2])
            .build()
            .unwrap();
        assert_ne!(base, fingerprint(&other));
        // A different constraint bound.
        let phi2 = AccessConstraint::new("movie", &["studio", "release"], &["mid"], 50).unwrap();
        let other = Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
            .fetch(phi2, vec![0, 1])
            .select_eq_const(2, 10)
            .project(vec![2])
            .build()
            .unwrap();
        assert_ne!(base, fingerprint(&other));
        // A different projection.
        let other = Plan::constant(vec![Value::str("Universal"), Value::str("2014")])
            .fetch(phi(), vec![0, 1])
            .select_eq_const(2, 10)
            .project(vec![0])
            .build()
            .unwrap();
        assert_ne!(base, fingerprint(&other));
    }

    /// Constants are not part of the shape: whatever their values or sorts,
    /// and however many of them coincide, plans that differ in nothing else
    /// share one fingerprint.
    #[test]
    fn constants_are_not_part_of_the_fingerprint() {
        let base = fingerprint(&sample());
        let other = Plan::constant(vec![Value::str("WB"), Value::int(2015)])
            .fetch(phi(), vec![0, 1])
            .select_eq_const(2, "WB")
            .project(vec![2])
            .build()
            .unwrap();
        assert_eq!(base, fingerprint(&other));
        let int1 = Plan::constant(vec![Value::int(1)]).build().unwrap();
        let bool1 = Plan::constant(vec![Value::bool(true)]).build().unwrap();
        assert_eq!(fingerprint(&int1), fingerprint(&bool1));
        // The number of constants is.
        let pair = Plan::constant(vec![Value::int(1), Value::int(1)])
            .build()
            .unwrap();
        assert_ne!(fingerprint(&int1), fingerprint(&pair));
    }

    #[test]
    fn renames_are_transparent() {
        let plain = Plan::view("V", 2).select_eq_cols(0, 1).build().unwrap();
        let renamed = Plan::view("V", 2)
            .rename()
            .select_eq_cols(0, 1)
            .rename()
            .build()
            .unwrap();
        assert_eq!(fingerprint(&plain), fingerprint(&renamed));
        assert_ne!(plain, renamed, "the trees themselves differ");
    }

    #[test]
    fn encoding_is_prefix_free_across_fields() {
        // ["ab"] + ["c"] vs ["a"] + ["bc"] as view names in a union: the
        // length prefixes keep the digests apart.
        let a = Plan::view("ab", 1)
            .union(Plan::view("c", 1))
            .build()
            .unwrap();
        let b = Plan::view("a", 1)
            .union(Plan::view("bc", 1))
            .build()
            .unwrap();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // Operator tags separate same-leaf trees.
        let u = Plan::view("V", 1)
            .union(Plan::view("V", 1))
            .build()
            .unwrap();
        let d = Plan::view("V", 1)
            .difference(Plan::view("V", 1))
            .build()
            .unwrap();
        assert_ne!(fingerprint(&u), fingerprint(&d));
    }
}
