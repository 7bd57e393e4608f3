//! Global value interning: dense `u32` ids for [`Value`]s.
//!
//! The slot-based homomorphism engine compares and hashes values in its
//! innermost loop.  [`Value`]s are cheap to clone but still carry an enum
//! tag, a 64-bit payload and (for strings) an `Arc` — comparing two of them
//! is branchy, and hashing one walks the string.  Interning maps every value
//! to a dense [`ValueId`] once, at snapshot-build time, so the engine's hot
//! loop works on plain `u32`s: equality is one integer compare, probe-key
//! hashing is integer hashing, and slot arrays are flat `u32` vectors.
//!
//! The pool is **process-global** and append-only.  This is what makes ids
//! from different relations comparable: a join between `r` and `s` compares
//! ids minted by the same pool, so `id(a) == id(b) ⇔ a == b` holds across
//! snapshots, caches and threads.  Ids are never recycled; the working set
//! is bounded by the number of *distinct* values ever interned, which for
//! the decision procedures is bounded by the active domains of the canonical
//! instances and workload databases in play.

use crate::value::Value;
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// A dense id for an interned [`Value`].  Ids are process-global: two equal
/// values always intern to the same id, and two distinct values never share
/// one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(u32);

impl ValueId {
    /// The raw index into the pool.
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Intern `value`, returning its id (minting one on first sight).
    pub fn intern(value: &Value) -> ValueId {
        pool().intern(value)
    }

    /// The id of `value` if it has been interned before; `None` otherwise.
    /// A value that was never interned occurs in no snapshot, so a probe for
    /// it can be answered (negatively) without touching the pool.
    pub fn lookup(value: &Value) -> Option<ValueId> {
        pool().lookup(value)
    }

    /// How many distinct values the process-global pool holds.  It only
    /// grows, so the difference across a piece of work is the number of
    /// values that work interned for the first time.
    pub fn pool_len() -> usize {
        let values = pool().values.read();
        values
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }

    /// Resolve the id back to its value (clones out of the pool; `Value`
    /// clones are `Copy`-or-`Arc`, so this is cheap).
    pub fn value(self) -> Value {
        pool().resolve(self)
    }
}

/// The process-wide pool.  `values` is append-only; `by_value` is the
/// reverse map.  Reads (resolve, lookup) take the read lock only.
struct ValuePool {
    by_value: RwLock<HashMap<Value, u32>>,
    values: RwLock<Vec<Value>>,
}

static POOL: OnceLock<ValuePool> = OnceLock::new();

fn pool() -> &'static ValuePool {
    POOL.get_or_init(|| ValuePool {
        by_value: RwLock::new(HashMap::new()),
        values: RwLock::new(Vec::new()),
    })
}

impl ValuePool {
    // The pool maps are only ever mutated append-style with both write locks
    // held, so a panicking holder cannot leave them torn: poisoned locks are
    // recovered rather than propagated.
    fn intern(&self, value: &Value) -> ValueId {
        use std::sync::PoisonError;
        if let Some(&id) = self
            .by_value
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(value)
        {
            return ValueId(id);
        }
        let mut by_value = self
            .by_value
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        // Re-check under the write lock: another thread may have won the race.
        if let Some(&id) = by_value.get(value) {
            return ValueId(id);
        }
        let mut values = self.values.write().unwrap_or_else(PoisonError::into_inner);
        let id = u32::try_from(values.len()).expect("value pool overflow");
        values.push(value.clone());
        by_value.insert(value.clone(), id);
        ValueId(id)
    }

    fn lookup(&self, value: &Value) -> Option<ValueId> {
        self.by_value
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(value)
            .copied()
            .map(ValueId)
    }

    fn resolve(&self, id: ValueId) -> Value {
        self.values
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)[id.0 as usize]
            .clone()
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
        let id = ValueId::intern(&novel);
        assert_eq!(ValueId::lookup(&novel), Some(id));
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
