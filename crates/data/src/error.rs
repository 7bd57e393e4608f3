//! Error type for the data layer.

use std::error::Error;
use std::fmt;

/// Errors produced by schema construction, instance manipulation and index
/// maintenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A relation with the same name was already declared.
    DuplicateRelation(String),
    /// An attribute name is repeated within one relation schema.
    DuplicateAttribute { relation: String, attribute: String },
    /// A relation name does not exist in the schema.
    UnknownRelation(String),
    /// An attribute name does not exist in a relation schema.
    UnknownAttribute { relation: String, attribute: String },
    /// A tuple's arity does not match its relation schema.
    ArityMismatch {
        relation: String,
        expected: usize,
        actual: usize,
    },
    /// An access constraint refers to a relation or attribute that does not
    /// exist, or is otherwise malformed.
    InvalidConstraint(String),
    /// A fetch was issued against a constraint that the indexed database does
    /// not maintain an index for.
    NoIndexForConstraint(String),
    /// A fault injected at a named failpoint site (see [`crate::faults`];
    /// only ever produced by test builds with the `failpoints` feature).
    FaultInjected(String),
    /// An index was asked for on positions the named relation does not
    /// have, or on a nullary relation, whose rows no index holds.
    IndexPositions(String, Vec<usize>),
    /// The process-global value pool holds as many distinct values as a
    /// [`crate::ValueId`] can name: a value it has never seen cannot be
    /// interned, so it cannot be stored.
    ValuePoolExhausted,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::DuplicateRelation(name) => {
                write!(f, "relation `{name}` is declared more than once")
            }
            DataError::DuplicateAttribute {
                relation,
                attribute,
            } => write!(
                f,
                "attribute `{attribute}` is declared more than once in relation `{relation}`"
            ),
            DataError::UnknownRelation(name) => write!(f, "unknown relation `{name}`"),
            DataError::UnknownAttribute {
                relation,
                attribute,
            } => {
                write!(f, "relation `{relation}` has no attribute `{attribute}`")
            }
            DataError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "tuple of arity {actual} inserted into relation `{relation}` of arity {expected}"
            ),
            DataError::InvalidConstraint(msg) => write!(f, "invalid access constraint: {msg}"),
            DataError::NoIndexForConstraint(c) => {
                write!(f, "no index is maintained for access constraint {c}")
            }
            DataError::FaultInjected(site) => {
                write!(f, "injected fault at failpoint `{site}`")
            }
            DataError::IndexPositions(relation, positions) => {
                write!(
                    f,
                    "relation `{relation}` has no index on positions {positions:?}"
                )
            }
            DataError::ValuePoolExhausted => {
                write!(f, "the value pool is full: no new value can be interned")
            }
        }
    }
}

impl Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let cases: Vec<(DataError, &str)> = vec![
            (DataError::DuplicateRelation("r".into()), "r"),
            (
                DataError::DuplicateAttribute {
                    relation: "r".into(),
                    attribute: "a".into(),
                },
                "a",
            ),
            (DataError::UnknownRelation("q".into()), "q"),
            (
                DataError::UnknownAttribute {
                    relation: "r".into(),
                    attribute: "z".into(),
                },
                "z",
            ),
            (
                DataError::ArityMismatch {
                    relation: "r".into(),
                    expected: 2,
                    actual: 3,
                },
                "arity 3",
            ),
            (DataError::InvalidConstraint("bad".into()), "bad"),
            (
                DataError::NoIndexForConstraint("r(X->Y,2)".into()),
                "r(X->Y,2)",
            ),
            (
                DataError::FaultInjected("data.index.build".into()),
                "data.index.build",
            ),
            (DataError::IndexPositions("calls".into(), vec![7]), "[7]"),
            (DataError::ValuePoolExhausted, "value pool"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }

    #[test]
    fn is_std_error() {
        fn takes_error(_: &dyn Error) {}
        takes_error(&DataError::UnknownRelation("x".into()));
    }
}
