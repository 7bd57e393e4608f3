//! What several integration suites share.

use bqr::data::{AccessSchema, Database, FetchStats};
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

/// Whether `D ⊨ A`, keyed by the access schema and the relations' epochs.
type Satisfied = HashMap<(String, Vec<(String, u64)>), bool>;

/// The paper's guarantee as an executable invariant: a bounded plan run over
/// an instance that satisfies the access schema `A` fetches at most
/// `|D_ξ|` base tuples — `Analysis::fetch_bound()`.  An execution over an
/// instance that violates `A` is counted, not held to it.  Threads of one
/// test share a tally; `D ⊨ A` is decided once per version of an instance.
#[derive(Debug, Default)]
pub struct FetchBound {
    /// Executions held to the bound, and executions over violating instances.
    tally: Mutex<(usize, usize)>,
    satisfied: Mutex<Satisfied>,
}

impl FetchBound {
    /// Hold an execution that fetched `stats` over `db` to `bound`, when
    /// `db` satisfies `access`.
    pub fn check(
        &self,
        stats: &FetchStats,
        bound: Option<usize>,
        access: &AccessSchema,
        db: &Database,
    ) {
        let epochs = db.epochs().map(|(r, e)| (r.to_string(), e)).collect();
        let mut memo = self
            .satisfied
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let key = (access.to_string(), epochs);
        let satisfied = *memo
            .entry(key)
            .or_insert_with(|| access.satisfied_by(db).unwrap());
        drop(memo);
        let mut tally = self.tally.lock().unwrap_or_else(PoisonError::into_inner);
        if !satisfied {
            tally.1 += 1;
            return;
        }
        let bound = bound.expect("an executed plan has a fetch bound");
        assert!(
            stats.fetched_tuples <= bound,
            "fetched {} base tuples, past |D_ξ| = {bound}",
            stats.fetched_tuples
        );
        tally.0 += 1;
    }

    /// Print the tally, and require at least one execution held to the
    /// bound.
    pub fn report(&self, test: &str) {
        let (asserted, violating) = *self.tally.lock().unwrap_or_else(PoisonError::into_inner);
        eprintln!(
            "{test}: fetched ≤ |D_ξ| held on {asserted} executions; \
             {violating} ran over instances violating A"
        );
        assert!(asserted > 0, "{test}: no execution was held to the bound");
    }
}
