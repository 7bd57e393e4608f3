//! The tuple set of a [`crate::Relation`]: a persistent B+-tree of sorted
//! id rows.
//!
//! The leaves are runs of at most [`CHUNK_MAX`] consecutive rows,
//! row-major, `arity` interned ids per row.  Each inner node holds at most
//! [`FANOUT_MAX`] children and, as its separators, each child's first row.
//! Every node is behind its own `Arc`, the root's included:
//!
//! * cloning a tree is one reference count, whatever its size;
//! * a write copies the nodes on its root-to-leaf path that another
//!   version still shares (path copying, `O(log_B #leaves)` inner nodes
//!   plus the one leaf it lands in), and a split or a merge copies or
//!   makes at most one more node per level;
//! * dropping a version frees only the nodes no other version shares.
//!
//! Rows are kept in the lexicographic order of their *values*, compared
//! through the pool ([`cmp_rows`]), not of their ids: the order a relation
//! iterates in is the order of its tuples, whatever order their values
//! happened to be interned in.

use crate::intern::ValueId;
use crate::tuple::cmp_rows;
use std::collections::HashSet;
use std::sync::Arc;

/// Most rows one leaf holds; an insert into a full leaf splits it in two.
pub(crate) const CHUNK_MAX: usize = 512;

/// A leaf that shrinks below this is folded into a sibling when the pair
/// fits one leaf.  A quarter of [`CHUNK_MAX`], so a freshly split leaf is
/// far from merging again and a freshly merged one far from splitting.
const CHUNK_MIN: usize = CHUNK_MAX / 4;

/// Most children one inner node holds; an inner node with one more splits.
const FANOUT_MAX: usize = 32;

/// An inner node with fewer children is folded into a sibling when the
/// pair fits one node; a quarter of [`FANOUT_MAX`], as for leaves.
const FANOUT_MIN: usize = FANOUT_MAX / 4;

#[derive(Debug, Clone)]
enum Node {
    /// Sorted rows, never empty — but a nullary relation's one tuple is
    /// the empty row, a leaf of no ids.
    Leaf(Vec<ValueId>),
    /// Children in row order, never empty, all at one depth; `seps` holds
    /// each child's first row, row-major.
    Inner {
        seps: Vec<ValueId>,
        children: Vec<Arc<Node>>,
    },
}

/// Rows in a run of `arity`-wide rows.  A nullary relation holds at most
/// the empty tuple, in a leaf of no ids.
fn rows_in(arity: usize, ids: &[ValueId]) -> usize {
    ids.len().checked_div(arity).unwrap_or(1)
}

/// Row `i` of a run of `arity`-wide rows.
fn nth_row(ids: &[ValueId], arity: usize, i: usize) -> &[ValueId] {
    &ids[i * arity..(i + 1) * arity]
}

/// The first row of a run for which `below` is false — `below` being true
/// on a prefix of the rows.
fn partition_rows(ids: &[ValueId], arity: usize, below: impl Fn(&[ValueId]) -> bool) -> usize {
    let (mut lo, mut hi) = (0, rows_in(arity, ids));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match below(nth_row(ids, arity, mid)) {
            true => lo = mid + 1,
            false => hi = mid,
        }
    }
    lo
}

/// The child of an inner node whose subtree `row` belongs in: the last
/// one starting at or before it (the first for a row below them all).
fn child_for(seps: &[ValueId], arity: usize, row: &[ValueId]) -> usize {
    partition_rows(seps, arity, |s| cmp_rows(s, row).is_le()).saturating_sub(1)
}

impl Node {
    fn first_row(&self, arity: usize) -> &[ValueId] {
        match self {
            Node::Leaf(ids) => &ids[..arity],
            Node::Inner { seps, .. } => &seps[..arity],
        }
    }

    /// Rows of a leaf, children of an inner node.
    fn size(&self, arity: usize) -> usize {
        match self {
            Node::Leaf(ids) => rows_in(arity, ids),
            Node::Inner { children, .. } => children.len(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Node::Leaf(ids) => ids.is_empty(),
            Node::Inner { children, .. } => children.is_empty(),
        }
    }

    /// The most and the least a node of this kind should hold.
    fn bounds(&self) -> (usize, usize) {
        match self {
            Node::Leaf(_) => (CHUNK_MAX, CHUNK_MIN),
            Node::Inner { .. } => (FANOUT_MAX, FANOUT_MIN),
        }
    }
}

/// A sorted set of id rows: see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct Tree {
    root: Option<Arc<Node>>,
    len: usize,
    arity: usize,
}

impl Tree {
    pub(crate) fn new(arity: usize) -> Self {
        Tree {
            root: None,
            len: 0,
            arity,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds `row`: one binary search per level.
    pub(crate) fn contains(&self, row: &[ValueId]) -> bool {
        let Some(mut node) = self.root.as_deref() else {
            return false;
        };
        loop {
            match node {
                Node::Inner { seps, children } => {
                    node = &children[child_for(seps, self.arity, row)];
                }
                Node::Leaf(ids) => {
                    let pos = partition_rows(ids, self.arity, |r| cmp_rows(r, row).is_lt());
                    return pos < rows_in(self.arity, ids) && nth_row(ids, self.arity, pos) == row;
                }
            }
        }
    }

    /// Insert a row the tree does not hold.
    pub(crate) fn insert(&mut self, row: &[ValueId]) {
        self.len += 1;
        let Some(root) = &mut self.root else {
            self.root = Some(Arc::new(Node::Leaf(row.to_vec())));
            return;
        };
        if let Some(right) = insert(root, row, self.arity, true) {
            // The root split: one level more, over the two halves.
            let seps = [root.first_row(self.arity), right.first_row(self.arity)].concat();
            let children = vec![Arc::clone(root), right];
            *root = Arc::new(Node::Inner { seps, children });
        }
    }

    /// Remove a row the tree holds.
    pub(crate) fn remove(&mut self, row: &[ValueId]) {
        self.len -= 1;
        let Some(root) = self.root.as_mut().filter(|_| self.len > 0) else {
            self.root = None;
            return;
        };
        remove(root, row, self.arity);
        // A root left with one child gives up its level.
        while let Node::Inner { children, .. } = &**root {
            match children.as_slice() {
                [only] => *root = Arc::clone(only),
                _ => break,
            }
        }
    }

    /// The leaves in row order.
    pub(crate) fn leaves(&self) -> Leaves<'_> {
        Leaves {
            stack: vec![self.root.as_slice().iter()],
        }
    }

    /// The stored rows from the first one on which `below` is false —
    /// `below` being true on a prefix of the rows: that leaf's tail, and
    /// the leaves after it.  One binary search per level.
    pub(crate) fn seek(&self, below: impl Fn(&[ValueId]) -> bool) -> (&[ValueId], Leaves<'_>) {
        let mut stack = Vec::new();
        let Some(mut node) = self.root.as_deref() else {
            return (&[], Leaves { stack });
        };
        loop {
            match node {
                Node::Inner { seps, children } => {
                    // The rows sought may start in the tail of the last
                    // child whose first row is still below.
                    let ci = partition_rows(seps, self.arity, &below).saturating_sub(1);
                    stack.push(children[ci + 1..].iter());
                    node = &children[ci];
                }
                Node::Leaf(ids) => {
                    let pos = partition_rows(ids, self.arity, &below);
                    return (&ids[pos * self.arity..], Leaves { stack });
                }
            }
        }
    }

    /// True when both are the very same storage: one root, or none.
    pub(crate) fn shares(&self, other: &Tree) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    /// Levels from the root to the leaves; 0 for an empty tree.
    pub(crate) fn height(&self) -> usize {
        let mut levels = 0;
        let mut node = self.root.as_deref();
        while let Some(n) = node {
            levels += 1;
            node = match n {
                Node::Inner { children, .. } => children.first().map(|c| &**c),
                Node::Leaf(_) => None,
            };
        }
        levels
    }

    /// Nodes of this tree, inner and leaves alike, that are not nodes of
    /// `other`: what the writes since `other` copied or made.  A node
    /// `other` shares is a subtree it shares, so the walk stops there.
    pub(crate) fn unshared_nodes(&self, other: &Tree) -> usize {
        fn walk<'t>(node: &'t Arc<Node>, visit: &mut impl FnMut(&'t Arc<Node>) -> bool) {
            if visit(node) {
                if let Node::Inner { children, .. } = &**node {
                    children.iter().for_each(|c| walk(c, visit));
                }
            }
        }
        let mut theirs = HashSet::new();
        if let Some(root) = &other.root {
            walk(root, &mut |n| theirs.insert(Arc::as_ptr(n)));
        }
        let mut unshared = 0;
        if let Some(root) = &self.root {
            walk(root, &mut |n| {
                let fresh = !theirs.contains(&Arc::as_ptr(n));
                unshared += usize::from(fresh);
                fresh
            });
        }
        unshared
    }
}

impl PartialEq for Tree {
    /// By content: equal sets compare equal however their insert histories
    /// happened to shape their trees.  Ids compare as their values do.
    fn eq(&self, other: &Self) -> bool {
        let ids = |t| Tree::leaves(t).flatten();
        self.len == other.len && (self.shares(other) || ids(self).eq(ids(other)))
    }
}

/// Insert the absent `row` under `node`, copying every node on the way
/// down that another version shares.  `last`: `node` is the rightmost of
/// its level.  Returns the right half of `node` when it overflowed.
fn insert(node: &mut Arc<Node>, row: &[ValueId], arity: usize, last: bool) -> Option<Arc<Node>> {
    if let Node::Leaf(ids) = &**node {
        let pos = partition_rows(ids, arity, |r| cmp_rows(r, row).is_lt());
        let rows = rows_in(arity, ids);
        // Appending past the full last leaf starts a new one instead of
        // splitting, so sorted loads fill their leaves completely.
        if last && pos == rows && rows >= CHUNK_MAX {
            return Some(Arc::new(Node::Leaf(row.to_vec())));
        }
        let ids = insert_in_leaf(node, pos * arity, row);
        let rows = rows_in(arity, ids);
        if rows <= CHUNK_MAX {
            return None;
        }
        let tail = ids.split_off(rows / 2 * arity);
        ids.shrink_to(CHUNK_MAX * arity);
        return Some(Arc::new(Node::Leaf(tail)));
    }
    let Node::Inner { seps, children } = Arc::make_mut(node) else {
        unreachable!("not a leaf");
    };
    let ci = child_for(seps, arity, row);
    let rightmost = last && ci + 1 == children.len();
    let split = insert(&mut children[ci], row, arity, rightmost);
    // The row may be the child's new first row.
    seps[ci * arity..(ci + 1) * arity].copy_from_slice(children[ci].first_row(arity));
    let right = split?;
    let at = (ci + 1) * arity;
    seps.splice(at..at, right.first_row(arity).iter().copied());
    children.insert(ci + 1, right);
    if children.len() <= FANOUT_MAX {
        return None;
    }
    // Halves even for an append to the rightmost node, unlike a leaf: a
    // sorted load then leaves every inner node room for the splits of its
    // children, so a write to loaded data splits at most one inner level.
    let keep = children.len() / 2;
    let tail = Node::Inner {
        seps: seps.split_off(keep * arity),
        children: children.split_off(keep),
    };
    Some(Arc::new(tail))
}

/// Splice `row` into a leaf at id offset `at`, and the leaf's ids.
fn insert_in_leaf<'n>(node: &'n mut Arc<Node>, at: usize, row: &[ValueId]) -> &'n mut Vec<ValueId> {
    if let Some(Node::Leaf(ids)) = Arc::get_mut(node) {
        ids.splice(at..at, row.iter().copied());
    } else if let Node::Leaf(ids) = &**node {
        // Shared with another version: the successor leaf is one copy, at
        // exactly its new length — not a clone grown to twice that.
        *node = Arc::new(Node::Leaf([&ids[..at], row, &ids[at..]].concat()));
    }
    match Arc::get_mut(node) {
        Some(Node::Leaf(ids)) => ids,
        _ => unreachable!("a leaf of this version's own"),
    }
}

/// Remove the present `row` under `node`, copying every node on the way
/// down that another version shares.  A child left empty is dropped, and
/// one left underfull is folded into a sibling when the two fit one node.
fn remove(node: &mut Arc<Node>, row: &[ValueId], arity: usize) {
    let (seps, children) = match Arc::make_mut(node) {
        Node::Leaf(ids) => {
            let pos = partition_rows(ids, arity, |r| cmp_rows(r, row).is_lt());
            ids.drain(pos * arity..(pos + 1) * arity);
            return;
        }
        Node::Inner { seps, children } => (seps, children),
    };
    let ci = child_for(seps, arity, row);
    remove(&mut children[ci], row, arity);
    if children[ci].is_empty() {
        children.remove(ci);
        seps.drain(ci * arity..(ci + 1) * arity);
        return;
    }
    seps[ci * arity..(ci + 1) * arity].copy_from_slice(children[ci].first_row(arity));
    let (max, min) = children[ci].bounds();
    if children[ci].size(arity) >= min || children.len() == 1 {
        return;
    }
    let (left, right) = match ci + 1 < children.len() {
        true => (ci, ci + 1),
        false => (ci - 1, ci),
    };
    if children[left].size(arity) + children[right].size(arity) > max {
        return;
    }
    let tail = children.remove(right);
    seps.drain(right * arity..(right + 1) * arity);
    match (Arc::make_mut(&mut children[left]), &*tail) {
        (Node::Leaf(ids), Node::Leaf(more)) => ids.extend_from_slice(more),
        (
            Node::Inner { seps, children },
            Node::Inner {
                seps: more_seps,
                children: more,
            },
        ) => {
            seps.extend_from_slice(more_seps);
            children.extend(more.iter().cloned());
        }
        _ => unreachable!("siblings are at one depth"),
    }
}

/// The leaves of a [`Tree`] in row order, each a row-major run of ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct Leaves<'a> {
    /// Per level on the path to the last leaf yielded, the siblings still
    /// to visit: the deepest level last.
    stack: Vec<std::slice::Iter<'a, Arc<Node>>>,
}

impl<'a> Iterator for Leaves<'a> {
    type Item = &'a [ValueId];

    fn next(&mut self) -> Option<&'a [ValueId]> {
        loop {
            let Some(node) = self.stack.last_mut()?.next() else {
                self.stack.pop();
                continue;
            };
            match &**node {
                Node::Leaf(ids) => return Some(ids),
                Node::Inner { children, .. } => self.stack.push(children.iter()),
            }
        }
    }
}

#[cfg(test)]
impl Tree {
    /// Panics unless the tree is well formed: leaves within bounds and at
    /// one depth, no empty node, every separator its child's first row,
    /// rows strictly ascending, and `len` their number.
    pub(crate) fn check(&self) {
        fn depth_and_rows(node: &Node, arity: usize, out: &mut Vec<Vec<ValueId>>) -> usize {
            match node {
                Node::Leaf(ids) => {
                    assert!(rows_in(arity, ids) <= CHUNK_MAX);
                    assert!(!ids.is_empty() || arity == 0);
                    out.extend((0..rows_in(arity, ids)).map(|i| nth_row(ids, arity, i).to_vec()));
                    1
                }
                Node::Inner { seps, children } => {
                    assert!(!children.is_empty() && children.len() <= FANOUT_MAX);
                    assert_eq!(seps.len(), children.len() * arity);
                    let depths: Vec<usize> = children
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            assert_eq!(nth_row(seps, arity, i), c.first_row(arity), "separator");
                            depth_and_rows(c, arity, out)
                        })
                        .collect();
                    assert!(depths.windows(2).all(|w| w[0] == w[1]), "one depth");
                    depths[0] + 1
                }
            }
        }
        let mut rows = Vec::new();
        if let Some(root) = &self.root {
            depth_and_rows(root, self.arity, &mut rows);
        }
        assert_eq!(rows.len(), self.len);
        assert!(rows.windows(2).all(|w| cmp_rows(&w[0], &w[1]).is_lt()));
        assert_eq!(self.height() > 0, self.len > 0);
    }
}
