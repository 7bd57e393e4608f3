//! Tuples: ordered sequences of values — owned ([`Tuple`]) or borrowed from
//! a relation's id storage ([`TupleRef`]).

use crate::intern::ValueId;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::ops::Index;

/// A tuple of values, positionally matching the attributes of some
/// [`RelationSchema`](crate::schema::RelationSchema).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Create a tuple from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple { values }
    }

    /// The empty (0-ary) tuple — the single answer of a Boolean query.
    pub fn unit() -> Self {
        Tuple { values: Vec::new() }
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// True for the 0-ary tuple.
    pub fn is_unit(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the underlying values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume into the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Field at position `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.values.get(i)
    }

    /// Project onto the given positions (in the given order).
    ///
    /// # Panics
    /// Panics if any position is out of range; callers validate positions
    /// against the relation schema.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple::new(positions.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenate two tuples (used by Cartesian product).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut values = Vec::with_capacity(self.arity() + other.arity());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Tuple::new(values)
    }

    /// Iterate over fields.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.values.iter()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.values[i]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_fields(f, self.values.iter())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple::new(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

/// A stored row, borrowed: the interned ids of one tuple of a
/// [`Relation`](crate::Relation), read by value through the pool.  This is
/// what a relation's iterators and lookups yield — the storage holds ids,
/// not [`Tuple`]s — and it reads like a `&Tuple`: `row[i]` is the `i`-th
/// field's [`Value`], its order is the tuples' value order and it prints
/// as the tuple does.  `Copy`, and nothing is resolved until a field is
/// read; [`TupleRef::to_tuple`] makes an owned copy.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TupleRef<'a> {
    ids: &'a [ValueId],
}

impl<'a> TupleRef<'a> {
    /// A row of interned ids, read as a tuple.
    pub fn new(ids: &'a [ValueId]) -> Self {
        TupleRef { ids }
    }

    /// The row's interned ids.
    pub fn ids(self) -> &'a [ValueId] {
        self.ids
    }

    /// Number of fields.
    pub fn arity(self) -> usize {
        self.ids.len()
    }

    /// The fields' values, resolved one at a time.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'static Value> + 'a {
        self.ids.iter().map(|id| id.get())
    }

    /// An owned copy of the row.
    pub fn to_tuple(self) -> Tuple {
        self.iter().cloned().collect()
    }

    /// The row projected onto the given positions (in the given order), as
    /// an owned tuple — [`Tuple::project`] of [`TupleRef::to_tuple`].
    ///
    /// # Panics
    /// Panics if any position is out of range.
    pub fn project(self, positions: &[usize]) -> Tuple {
        positions.iter().map(|&i| self[i].clone()).collect()
    }
}

/// Lexicographic [`Value`] order of two id rows, the order relations store
/// and iterate their tuples in: a field whose ids agree is equal without
/// being resolved, and the first that differs decides by value.
pub(crate) fn cmp_rows(a: &[ValueId], b: &[ValueId]) -> Ordering {
    let differ = a.iter().zip(b).find(|(x, y)| x != y);
    let by_field = differ.map_or(Ordering::Equal, |(x, y)| x.get().cmp(y.get()));
    by_field.then(a.len().cmp(&b.len()))
}

impl Ord for TupleRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_rows(self.ids, other.ids)
    }
}

impl PartialOrd for TupleRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Index<usize> for TupleRef<'_> {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        self.ids[i].get()
    }
}

impl PartialEq<Tuple> for TupleRef<'_> {
    fn eq(&self, other: &Tuple) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for TupleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl fmt::Display for TupleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_fields(f, self.iter())
    }
}

/// `(a, b, …)`, each field rendered bare — [`Tuple`]'s and [`TupleRef`]'s
/// shared `Display`.
fn write_fields<'v>(
    f: &mut fmt::Formatter<'_>,
    fields: impl Iterator<Item = &'v Value>,
) -> fmt::Result {
    write!(f, "(")?;
    for (i, v) in fields.enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{}", v.render())?;
    }
    write!(f, ")")
}

/// Build a tuple from anything convertible into values.
///
/// ```
/// use bqr_data::{tuple, Value};
/// let t = tuple![1, "NASA", true];
/// assert_eq!(t.arity(), 3);
/// assert_eq!(t[1], Value::str("NASA"));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn macro_and_basic_accessors() {
        let t = tuple![1, "a", false];
        assert_eq!(t.arity(), 3);
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t.get(1), Some(&Value::str("a")));
        assert_eq!(t.get(3), None);
        assert!(!t.is_unit());
        assert!(Tuple::unit().is_unit());
    }

    #[test]
    fn project_reorders_and_duplicates() {
        let t = tuple![10, 20, 30];
        let p = t.project(&[2, 0, 0]);
        assert_eq!(p, tuple![30, 10, 10]);
        assert_eq!(t.project(&[]), Tuple::unit());
    }

    #[test]
    fn concat_appends() {
        let a = tuple![1, 2];
        let b = tuple!["x"];
        assert_eq!(a.concat(&b), tuple![1, 2, "x"]);
        assert_eq!(Tuple::unit().concat(&a), a);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(tuple![1, "NASA"].to_string(), "(1, NASA)");
        assert_eq!(Tuple::unit().to_string(), "()");
    }

    #[test]
    fn a_borrowed_row_reads_like_its_tuple() {
        let t = tuple![3, "row-ref", true];
        let ids: Vec<ValueId> = t.iter().map(ValueId::intern).collect();
        let row = TupleRef::new(&ids);
        assert_eq!((row.arity(), &row[1]), (3, &Value::str("row-ref")));
        assert_eq!(row.to_string(), t.to_string());
        assert_eq!(row.to_tuple(), t);
        assert!(row == t);
        assert_eq!(row.project(&[2, 0]), tuple![true, 3]);
        // Value order, whichever ids the values drew.
        let low: Vec<ValueId> = tuple![3, "row-ref", false]
            .iter()
            .map(ValueId::intern)
            .collect();
        assert!(TupleRef::new(&low) < row);
        assert!(TupleRef::new(&ids[..2]) < row, "a prefix sorts first");
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tuple = vec![Value::int(1), Value::int(2)].into_iter().collect();
        assert_eq!(t, tuple![1, 2]);
        let sum: i64 = t.iter().filter_map(Value::as_int).sum();
        assert_eq!(sum, 3);
    }
}
