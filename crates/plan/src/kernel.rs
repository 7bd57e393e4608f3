//! Vectorised batch kernels over flat `ValueId` data.
//!
//! The executor's intermediate tables are already column-shaped (row-major
//! `Vec<ValueId>`); these kernels are the tight loops that process them a
//! *batch* ([`BATCH_ROWS`] rows) at a time:
//!
//! * [`filter`] evaluates a conjunction of [`IdCond`]s condition-at-a-time
//!   into a **selection vector** (row indices, batch-relative).  The first
//!   condition scans one column with a strided loop; each further condition
//!   compacts the surviving indices in place.  No row data moves until
//!   [`gather`] copies the survivors out in one pass (a single `memcpy`
//!   when everything passed).
//! * [`project`] copies a column subset of a batch without any per-row
//!   branching.
//! * [`JoinTable`] is the hash-join build side, specialised for the
//!   overwhelmingly common single-column equi-join key: a bare
//!   `ValueId → rows` map probed without building a key vector per row.
//! * [`dedup`] sorts + dedups a table's rows, sorting ids directly for
//!   arity-1 tables (no per-row slice indirection).
//!
//! Every kernel is deterministic and order-preserving: output rows appear
//! in input order, so concatenating per-batch outputs reproduces the
//! one-pass result bit for bit.
//! Guard checks happen *between* batches, in the callers — the loops here
//! never branch on anything but the data.

use crate::exec::IdCond;
use crate::guard::Guard;
use crate::Result;
use bqr_data::ValueId;
use std::collections::HashMap;

/// Rows per kernel batch.  Matches the guard's former per-row checkpoint
/// mask interval, so one `Guard::check` per batch preserves the PR 6
/// cancellation cadence (and its ≤5% overhead gate).
pub(crate) const BATCH_ROWS: usize = 1024;

/// Evaluate `conds` (constant slots resolved against `consts`) over a batch
/// of `rows` rows (flat row-major `data` of `rows * arity` ids), leaving the
/// batch-relative indices of the surviving rows in `sel` (cleared first,
/// ascending order).
pub(crate) fn filter(
    conds: &[IdCond],
    consts: &[ValueId],
    data: &[ValueId],
    arity: usize,
    rows: usize,
    sel: &mut Vec<u32>,
) {
    sel.clear();
    let Some((first, rest)) = conds.split_first() else {
        sel.extend(0..rows as u32);
        return;
    };
    // First condition: one strided pass over the column(s) it touches.
    match *first {
        IdCond::EqConst(c, s) => {
            let (mut p, v) = (c, consts[s]);
            for i in 0..rows as u32 {
                if data[p] == v {
                    sel.push(i);
                }
                p += arity;
            }
        }
        IdCond::NeConst(c, s) => {
            let (mut p, v) = (c, consts[s]);
            for i in 0..rows as u32 {
                if data[p] != v {
                    sel.push(i);
                }
                p += arity;
            }
        }
        IdCond::EqCol(a, b) => {
            let (mut pa, mut pb) = (a, b);
            for i in 0..rows as u32 {
                if data[pa] == data[pb] {
                    sel.push(i);
                }
                pa += arity;
                pb += arity;
            }
        }
        IdCond::NeCol(a, b) => {
            let (mut pa, mut pb) = (a, b);
            for i in 0..rows as u32 {
                if data[pa] != data[pb] {
                    sel.push(i);
                }
                pa += arity;
                pb += arity;
            }
        }
    }
    // Remaining conditions compact the selection vector in place: only the
    // surviving rows are revisited, and no row data is copied.
    for cond in rest {
        let mut k = 0;
        for idx in 0..sel.len() {
            let i = sel[idx] as usize * arity;
            if cond.holds(&data[i..i + arity], consts) {
                sel[k] = sel[idx];
                k += 1;
            }
        }
        sel.truncate(k);
    }
}

/// Append the rows selected by `sel` (batch-relative indices into `data`,
/// which holds `rows * arity` ids) to `out`.  An all-pass selection is one
/// `memcpy` of the whole batch.
pub(crate) fn gather(
    data: &[ValueId],
    arity: usize,
    rows: usize,
    sel: &[u32],
    out: &mut Vec<ValueId>,
) {
    if sel.len() == rows {
        out.extend_from_slice(data);
        return;
    }
    out.reserve(sel.len() * arity);
    for &i in sel {
        let s = i as usize * arity;
        out.extend_from_slice(&data[s..s + arity]);
    }
}

/// Append the projection of a batch onto `cols` to `out`.
pub(crate) fn project(data: &[ValueId], arity: usize, cols: &[usize], out: &mut Vec<ValueId>) {
    out.reserve(data.len() / arity.max(1) * cols.len());
    if let [col] = *cols {
        // Single output column: one strided pass.
        let mut p = col;
        while p < data.len() {
            out.push(data[p]);
            p += arity;
        }
        return;
    }
    for row in data.chunks_exact(arity) {
        out.extend(cols.iter().map(|&c| row[c]));
    }
}

/// The build side of a hash join: join-key → build-row indices.  The
/// single-column key case — every equi-join the σ-over-× compiler emits for
/// chain/star/triangle-shaped plans — hashes a bare `ValueId`; only
/// multi-column keys pay for a key vector.
pub(crate) enum JoinTable {
    Single(HashMap<ValueId, Vec<u32>>),
    Multi(HashMap<Vec<ValueId>, Vec<u32>>),
}

impl JoinTable {
    /// Build the table over `rows` rows of flat `data`, keyed by `key_cols`.
    /// The guard is checked once per [`BATCH_ROWS`] rows.
    pub(crate) fn build(
        data: &[ValueId],
        arity: usize,
        rows: usize,
        key_cols: &[usize],
        guard: &Guard,
    ) -> Result<JoinTable> {
        if let [col] = *key_cols {
            let mut map: HashMap<ValueId, Vec<u32>> = HashMap::new();
            let mut start = 0;
            while start < rows {
                guard.check()?;
                let end = (start + BATCH_ROWS).min(rows);
                for i in start..end {
                    map.entry(data[i * arity + col]).or_default().push(i as u32);
                }
                start = end;
            }
            Ok(JoinTable::Single(map))
        } else {
            let mut map: HashMap<Vec<ValueId>, Vec<u32>> = HashMap::new();
            let mut start = 0;
            while start < rows {
                guard.check()?;
                let end = (start + BATCH_ROWS).min(rows);
                for i in start..end {
                    let row = &data[i * arity..(i + 1) * arity];
                    let key: Vec<ValueId> = key_cols.iter().map(|&c| row[c]).collect();
                    map.entry(key).or_default().push(i as u32);
                }
                start = end;
            }
            Ok(JoinTable::Multi(map))
        }
    }
}

/// Sort + dedup `data`'s rows (lexicographic on ids), returning the flat
/// deduplicated data.  `arity` must be ≥ 1.  Arity-1 tables sort the id
/// column directly; wider tables sort row slices.
pub(crate) fn dedup(data: Vec<ValueId>, arity: usize) -> Vec<ValueId> {
    debug_assert!(arity >= 1);
    if arity == 1 {
        let mut data = data;
        data.sort_unstable();
        data.dedup();
        return data;
    }
    let mut rows: Vec<&[ValueId]> = data.chunks_exact(arity).collect();
    rows.sort_unstable();
    rows.dedup();
    let mut out = Vec::with_capacity(rows.len() * arity);
    for row in &rows {
        out.extend_from_slice(row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bqr_data::Value;

    fn ids(vals: &[i64]) -> Vec<ValueId> {
        vals.iter()
            .map(|&v| ValueId::intern(&Value::int(v)))
            .collect()
    }

    fn id(v: i64) -> ValueId {
        ValueId::intern(&Value::int(v))
    }

    /// Reference semantics: row-at-a-time `IdCond::holds` over every row.
    fn filter_reference(
        conds: &[IdCond],
        consts: &[ValueId],
        data: &[ValueId],
        arity: usize,
        rows: usize,
    ) -> Vec<u32> {
        (0..rows as u32)
            .filter(|&i| {
                let s = i as usize * arity;
                conds.iter().all(|c| c.holds(&data[s..s + arity], consts))
            })
            .collect()
    }

    #[test]
    fn filter_matches_row_at_a_time_reference() {
        // 2-column batch with repeats, equal pairs and a sentinel constant.
        let data = ids(&[1, 1, 2, 3, 1, 5, 4, 4, 9, 9, 1, 2]);
        let arity = 2;
        let rows = 6;
        // Slots 0, 1, 2 hold the constants 1, 2, 4.
        let consts = ids(&[1, 2, 4]);
        let cond_sets: Vec<Vec<IdCond>> = vec![
            vec![],
            vec![IdCond::EqConst(0, 0)],
            vec![IdCond::NeConst(0, 0)],
            vec![IdCond::EqCol(0, 1)],
            vec![IdCond::NeCol(0, 1)],
            vec![IdCond::EqConst(0, 0), IdCond::NeCol(0, 1)],
            vec![
                IdCond::NeCol(0, 1),
                IdCond::EqConst(1, 1),
                IdCond::NeConst(0, 2),
            ],
        ];
        let mut sel = Vec::new();
        for conds in &cond_sets {
            filter(conds, &consts, &data, arity, rows, &mut sel);
            assert_eq!(
                sel,
                filter_reference(conds, &consts, &data, arity, rows),
                "{conds:?}"
            );
        }
    }

    #[test]
    fn filter_all_pass_and_all_fail_extremes() {
        let data = ids(&[7, 7, 7, 7]);
        let seven = ids(&[7]);
        let mut sel = vec![99];
        // All-pass: every index, ascending.
        filter(&[IdCond::EqConst(0, 0)], &seven, &data, 1, 4, &mut sel);
        assert_eq!(sel, vec![0, 1, 2, 3]);
        // All-fail: empty selection (and the previous contents are cleared).
        filter(&[IdCond::NeConst(0, 0)], &seven, &data, 1, 4, &mut sel);
        assert!(sel.is_empty());
        // Empty batch: nothing selected regardless of conditions.
        filter(&[IdCond::EqConst(0, 0)], &seven, &[], 1, 0, &mut sel);
        assert!(sel.is_empty());
    }

    #[test]
    fn gather_copies_selected_rows_in_order() {
        let data = ids(&[1, 2, 3, 4, 5, 6]);
        let mut out = Vec::new();
        gather(&data, 2, 3, &[0, 2], &mut out);
        assert_eq!(out, ids(&[1, 2, 5, 6]));
        // All-pass takes the memcpy path; output identical to the input.
        out.clear();
        gather(&data, 2, 3, &[0, 1, 2], &mut out);
        assert_eq!(out, data);
        // Empty selection appends nothing.
        gather(&data, 2, 3, &[], &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn project_single_and_multi_column() {
        let data = ids(&[1, 2, 3, 4, 5, 6]);
        let mut out = Vec::new();
        project(&data, 2, &[1], &mut out);
        assert_eq!(out, ids(&[2, 4, 6]));
        out.clear();
        project(&data, 2, &[1, 0], &mut out);
        assert_eq!(out, ids(&[2, 1, 4, 3, 6, 5]));
        out.clear();
        project(&[], 2, &[0], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn join_table_single_key_specialisation_agrees_with_multi() {
        let guard = Guard::new(&crate::guard::GuardLimits::none());
        let data = ids(&[1, 10, 2, 20, 1, 30]);
        let single = JoinTable::build(&data, 2, 3, &[0], &guard).unwrap();
        assert!(matches!(&single, JoinTable::Single(map) if map.len() == 2));
        let multi = JoinTable::build(&data, 2, 3, &[0, 1], &guard).unwrap();
        assert!(matches!(&multi, JoinTable::Multi(map) if map.len() == 3));
        if let JoinTable::Single(map) = &single {
            assert_eq!(map[&id(1)], vec![0, 2], "build rows in input order");
            assert_eq!(map[&id(2)], vec![1]);
        }
    }

    #[test]
    fn dedup_arity_one_fast_path_matches_slice_path() {
        // Duplicates scattered across what would be several batches.
        let vals: Vec<i64> = (0..5000).map(|i| i % 97).collect();
        let flat = ids(&vals);
        let narrow = dedup(flat.clone(), 1);
        // The slice path on the same data (forced by calling with the rows
        // laid out identically) must agree.
        let mut expect: Vec<ValueId> = flat;
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(narrow, expect);
        assert_eq!(narrow.len(), 97);

        let wide = dedup(ids(&[3, 4, 1, 2, 3, 4, 1, 2]), 2);
        assert_eq!(wide.len(), 4, "two distinct rows of arity 2");
        assert_eq!(dedup(Vec::new(), 2), Vec::new());
    }
}
