//! Global value interning: dense `u32` ids for [`Value`]s, and the one copy
//! of every stored value.
//!
//! A relation stores its tuples as rows of [`ValueId`]s, not of [`Value`]s
//! (see [`crate::Relation`]): [`crate::Relation::insert`] is where a stored
//! value is interned, once, and from then on every structure derived from
//! the relation — access, keyed and cached indexes, plan batches — copies
//! ids and never interns again.  A [`Value`] is held in exactly one place,
//! this pool, and exists anywhere else only at the boundaries: a parsed
//! query's constants, a tuple handed to `insert` (and the write delta that
//! records it), an answer materialised for a caller.  Comparing two ids is one integer compare, hashing one is
//! integer hashing, and a row of four ids is 16 bytes where four `Value`s
//! are 96.
//!
//! **Resolution is lock-free.**  The values live in an append-only arena of
//! doubling buckets, each slot set once; an id is published — entered in
//! the reverse map every lookup goes through — only after its slot is set.
//! So [`ValueId::get`] is two atomic loads and an index, never a lock, and
//! cannot miss: it hands out `&'static Value`, which is what lets a stored
//! row index to `&Value` ([`crate::TupleRef`]) without owning one.  Minting
//! takes the reverse map's write lock; a lookup its read lock.
//!
//! **The pool is process-global, append-only and never reclaimed.**  This
//! is a decision, not an accident of implementation:
//!
//! * one pool makes ids from every relation, index and thread
//!   comparable: `id(a) == id(b) ⇔ a == b` holds across all of them, which
//!   is what lets a join compare ids minted for different relations;
//! * `&'static` resolution is what makes a stored row cheap to read by
//!   value — and a slot that could be freed could not be handed out for the
//!   life of the process;
//! * the pool's size is the number of *distinct* values ever interned — 20 k
//!   for the 1 M-tuple CDR instance — not the number of tuples, so it is a
//!   small fraction of what the relations themselves hold.
//!
//! What it costs: a process that interns an unbounded stream of never-seen
//! values grows without bound.  When the pool is full (`2³² − 1` values)
//! minting fails with [`DataError::ValuePoolExhausted`] through
//! [`ValueId::try_intern`], which is how every write path interns; an
//! engine-scoped or epoch-reclaimed pool is the alternative this design
//! declines.

use crate::error::DataError;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::{OnceLock, PoisonError, RwLock};

/// A dense id for an interned [`Value`].  Ids are process-global: two equal
/// values always intern to the same id, and two distinct values never share
/// one.  Every id was minted by the pool, so every id resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(u32);

impl ValueId {
    /// The raw index into the pool.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Intern `value`, returning its id (minting one on first sight), or
    /// [`DataError::ValuePoolExhausted`] when minting would overflow the
    /// pool.  What every write path calls: a stored tuple's values, a
    /// query's bound constants.
    ///
    /// The [`crate::faults::sites::VALUE_INTERN`] failpoint is checked only
    /// when the value is not in the pool yet, so an injected fault fails
    /// exactly the work that would mint a new id.
    pub fn try_intern(value: &Value) -> Result<ValueId, DataError> {
        if let Some(id) = Self::lookup(value) {
            return Ok(id);
        }
        crate::faults::check(crate::faults::sites::VALUE_INTERN)?;
        pool().intern(value)
    }

    /// [`ValueId::try_intern`] for callers that cannot report an error and
    /// whose values are bounded by something far smaller than the pool — a
    /// query text's constants, a canonical instance's domain.
    ///
    /// # Panics
    /// Panics when the pool is full.
    pub fn intern(value: &Value) -> ValueId {
        pool().intern(value).unwrap_or_else(|full| panic!("{full}"))
    }

    /// The id of `value` if it has been interned before; `None` otherwise.
    /// A value that was never interned occurs in no relation, so a probe for
    /// it can be answered (negatively) without minting anything.
    pub fn lookup(value: &Value) -> Option<ValueId> {
        pool().lookup(value)
    }

    /// How many distinct values the process-global pool holds.  It only
    /// grows, so the difference across a piece of work is the number of
    /// values that work interned for the first time.
    pub fn pool_len() -> usize {
        pool().read().len()
    }

    /// The value this id stands for: the pool's own copy, lock-free.
    pub fn get(self) -> &'static Value {
        let (bucket, slot) = locate(self.0);
        pool().buckets[bucket]
            .get()
            .and_then(|slots| slots[slot].get())
            // A slot is set before its id enters `by_value`, and ids come
            // only from `by_value`: a minted id always finds its value.
            .expect("a published id's slot is set")
    }

    /// The value this id stands for, cloned out of the pool (`Value` clones
    /// are `Copy`-or-`Arc`, so this is cheap).
    pub fn value(self) -> Value {
        self.get().clone()
    }
}

/// Buckets of the arena: bucket `b` holds `2^b` slots, so 32 of them hold
/// every id a `u32` can name but the last.
const BUCKETS: usize = 32;

/// Bucket and slot of id `id`: ids `2^b − 1 .. 2^(b+1) − 1` fill bucket `b`.
fn locate(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let bucket = 63 - n.leading_zeros() as usize;
    (bucket, (n - (1 << bucket)) as usize)
}

/// The process-wide pool.  `buckets` is the append-only arena that owns
/// every value; `by_value` maps a value — borrowed from its arena slot, so
/// not a second copy — to its id.
struct ValuePool {
    buckets: [OnceLock<Box<[OnceLock<Value>]>>; BUCKETS],
    by_value: RwLock<HashMap<&'static Value, u32>>,
}

static POOL: OnceLock<ValuePool> = OnceLock::new();

fn pool() -> &'static ValuePool {
    POOL.get_or_init(|| ValuePool {
        buckets: std::array::from_fn(|_| OnceLock::new()),
        by_value: RwLock::new(HashMap::new()),
    })
}

impl ValuePool {
    // `by_value` is only ever mutated append-style under its write lock, and
    // a slot is written once before its entry: a panicking holder cannot
    // leave either torn, so a poisoned lock is recovered, not propagated.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<&'static Value, u32>> {
        self.by_value.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.read().get(value).copied().map(ValueId)
    }

    fn intern(&'static self, value: &Value) -> Result<ValueId, DataError> {
        if let Some(id) = self.lookup(value) {
            return Ok(id);
        }
        let mut by_value = self
            .by_value
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // Re-check under the write lock: another thread may have won the race.
        if let Some(&id) = by_value.get(value) {
            return Ok(ValueId(id));
        }
        let id = u32::try_from(by_value.len())
            .ok()
            .filter(|&id| id < u32::MAX)
            .ok_or(DataError::ValuePoolExhausted)?;
        let (bucket, slot) = locate(id);
        let slots = self.buckets[bucket]
            .get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect());
        let stored: &'static Value = slots[slot].get_or_init(|| value.clone());
        by_value.insert(stored, id);
        Ok(ValueId(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_round_trips() {
        for v in [
            Value::int(42),
            Value::str("NASA"),
            Value::bool(true),
            Value::int(-7),
            Value::str(""),
        ] {
            let id = ValueId::intern(&v);
            assert_eq!(id.value(), v, "Value → id → Value must round-trip");
            assert_eq!(id.get(), &v);
            assert!(std::ptr::eq(id.get(), id.get()), "one copy, one address");
        }
    }

    #[test]
    fn equal_values_share_an_id_distinct_values_do_not() {
        let a = ValueId::intern(&Value::str("shared-id-test"));
        let b = ValueId::intern(&Value::str("shared-id-test"));
        assert_eq!(a, b);
        let c = ValueId::intern(&Value::str("shared-id-test-other"));
        assert_ne!(a, c);
        // An integer and a string rendering alike are still distinct values.
        let i = ValueId::intern(&Value::int(99_991));
        let s = ValueId::intern(&Value::str("99991"));
        assert_ne!(i, s);
    }

    #[test]
    fn lookup_does_not_mint() {
        let novel = Value::str("never-interned-by-any-other-test-7f3a9c");
        assert_eq!(ValueId::lookup(&novel), None);
        let id = ValueId::try_intern(&novel).unwrap();
        assert_eq!(ValueId::lookup(&novel), Some(id));
    }

    #[test]
    fn buckets_double_and_cover_every_id_but_the_last() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1), (1, 0));
        assert_eq!(locate(2), (1, 1));
        assert_eq!(locate(3), (2, 0));
        assert_eq!(locate(6), (2, 3));
        assert_eq!(locate(7), (3, 0));
        assert_eq!(locate(u32::MAX - 1), (BUCKETS - 1, (1 << 31) - 1));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..100)
                        .map(|i| ValueId::intern(&Value::int(1_000_000 + i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<ValueId>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for ids in &all[1..] {
            assert_eq!(ids, &all[0], "every thread must see the same ids");
        }
        for (i, id) in all[0].iter().enumerate() {
            assert_eq!(id.value(), Value::int(1_000_000 + i as i64));
        }
    }
}
