//! Fill-reducing orderings for sparse symmetric factorization.
//!
//! Three classic algorithms are provided, selected via [`OrderingKind`]:
//!
//! - **Reverse Cuthill–McKee** (`Rcm`): breadth-first profile reduction,
//!   good for banded/mesh matrices,
//! - **Approximate minimum degree** (`MinDegree`, the default): the AMD
//!   algorithm of Amestoy, Davis & Duff, "An approximate minimum degree
//!   ordering algorithm", SIAM J. Matrix Anal. Appl. 17(4):886–905, 1996.
//!   Excellent for the tree-plus-a-few-edges sparsifiers this workspace
//!   factorizes in its inner loop, and for the hub-heavy graphs where
//!   exact minimum degree is quadratic around the hubs,
//! - **Nested dissection** (`NestedDissection`): recursive BFS level-set
//!   separators, the right choice for 2-D/3-D mesh Laplacians used as
//!   direct-solver baselines.
//!
//! All orderings operate on the sparsity pattern only, require it to be
//! structurally symmetric (full symmetric storage, not one triangle), and
//! return a [`Permutation`] in new-of-old form.
//!
//! # Approximate minimum degree
//!
//! Elimination runs on the *quotient graph*: eliminating variable `p`
//! turns it into an *element* whose boundary `L_p` is the union of `p`'s
//! variable neighbours and the boundaries of the elements adjacent to `p`,
//! which the new element absorbs. The quotient graph never needs more
//! storage than the input pattern; it lives in one flat index array with
//! some elbow room. Per pivot step:
//!
//! - **Approximate external degrees.** Exact degrees need the union of
//!   every adjacent element's boundary, which is quadratic around hubs.
//!   AMD instead bounds the degree of each `i ∈ L_p` by
//!   `|A_i| + |L_p \ i| + Σ_{e ∈ E_i, e ≠ p} |L_e \ L_p|`, capped by its
//!   previous bound plus `|L_p \ i|` and by the number of nodes left. The
//!   set differences `|L_e \ L_p|` come from one pass over `L_p` that
//!   decrements a per-element counter.
//! - **Aggressive absorption.** An element with `|L_e \ L_p| = 0` lies
//!   inside the new element and is absorbed as well, even when it is not
//!   adjacent to `p`.
//! - **Supervariables.** Variables with identical lists are
//!   indistinguishable. They are found by hashing each updated list and
//!   comparing within a hash bucket, then merged into one supervariable
//!   that is eliminated as a block. A variable whose list shrinks to the
//!   new element alone is *mass-eliminated* together with `p`.
//! - **Dense rows.** Nodes of degree above `max(16, 10√n)` are removed
//!   before elimination and ordered last.
//!
//! The order is emitted level by level up the *assembly tree* (each
//! element's children are the elements it absorbed; merged variables go
//! right before their representative). Any order that puts children
//! before parents has the same fill as the pivot sequence. This one puts
//! mutually independent columns next to each other, so consecutive rows
//! of a triangular solve do not wait on each other. A postorder of the
//! same tree (each subtree contiguous) places every parent right behind
//! its last child, which chains consecutive rows and made the triangular
//! solves on this workspace's sparsifiers markedly slower. Ties break by
//! degree-list position and node index; no hash-map iteration order
//! enters, so the result is deterministic.

use crate::{CsrMatrix, Permutation, Result, SparseError};

/// Which fill-reducing ordering to use for a factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum OrderingKind {
    /// Keep the natural (input) order.
    Natural,
    /// Reverse Cuthill–McKee.
    Rcm,
    /// Approximate minimum degree (AMD; Amestoy, Davis & Duff, SIAM J.
    /// Matrix Anal. Appl. 17(4), 1996), emitted level by level up the
    /// assembly tree with dense rows last. The default; best for near-tree
    /// and hub-heavy graphs.
    #[default]
    MinDegree,
    /// BFS level-set nested dissection (best for mesh-like graphs).
    NestedDissection,
}

/// Computes a fill-reducing permutation for the pattern of `a`.
///
/// The matrix values are ignored.
///
/// # Errors
///
/// Returns [`SparseError::NotSquare`] for rectangular input and
/// [`SparseError::NotSymmetric`] if the pattern is not structurally
/// symmetric (for example, only one triangle stored).
pub fn compute(a: &CsrMatrix, kind: OrderingKind) -> Result<Permutation> {
    require_symmetric_pattern(a)?;
    let n = a.nrows();
    let order = match kind {
        OrderingKind::Natural => (0..n).collect(),
        OrderingKind::Rcm => rcm_order(a),
        OrderingKind::MinDegree => min_degree_order(a),
        OrderingKind::NestedDissection => nested_dissection_order(a),
    };
    Permutation::from_old_of_new(order)
}

/// Checks that `a` is square with a structurally symmetric pattern —
/// `(j, i)` stored whenever `(i, j)` is — the precondition of every
/// ordering here and of the `LDLᵀ` factorization. Values are ignored; rows
/// may be unsorted or repeat a column. `O(nnz)` time and `O(n + nnz)`
/// scratch.
///
/// # Errors
///
/// [`SparseError::NotSquare`] or [`SparseError::NotSymmetric`].
pub(crate) fn require_symmetric_pattern(a: &CsrMatrix) -> Result<()> {
    let n = a.nrows();
    if n != a.ncols() {
        return Err(SparseError::NotSquare {
            nrows: n,
            ncols: a.ncols(),
        });
    }
    // Transposed pattern by counting sort: `t_idx[t_ptr[j]..t_ptr[j + 1]]`
    // lists every row `i` that stores column `j`.
    let mut t_ptr = vec![0usize; n + 1];
    for &c in a.indices() {
        t_ptr[c as usize + 1] += 1;
    }
    for j in 0..n {
        t_ptr[j + 1] += t_ptr[j];
    }
    let mut next = t_ptr[..n].to_vec();
    let mut t_idx = vec![0u32; a.nnz()];
    for i in 0..n {
        for &c in a.row(i).0 {
            t_idx[next[c as usize]] = i as u32;
            next[c as usize] += 1;
        }
    }
    // Row j must store every i that stores j; over all j, that is the
    // whole condition.
    let mut stamp = next;
    stamp.fill(usize::MAX);
    for j in 0..n {
        for &c in a.row(j).0 {
            stamp[c as usize] = j;
        }
        if t_idx[t_ptr[j]..t_ptr[j + 1]]
            .iter()
            .any(|&i| stamp[i as usize] != j)
        {
            return Err(SparseError::NotSymmetric);
        }
    }
    Ok(())
}

/// Structural degree of each node (self-loops excluded).
fn degrees(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    (0..n)
        .map(|i| {
            let (cols, _) = a.row(i);
            cols.iter().filter(|&&c| c as usize != i).count()
        })
        .collect()
}

/// BFS from `start` over nodes with `allowed` stamp, returning the visit
/// order and filling `level` (distances). Only nodes with
/// `stamp[v] == allowed` are touched.
fn bfs_levels(
    a: &CsrMatrix,
    start: usize,
    stamp: &[u32],
    allowed: u32,
    level: &mut [u32],
    visited_mark: &mut [u32],
    mark: u32,
) -> Vec<usize> {
    let mut order = vec![start];
    level[start] = 0;
    visited_mark[start] = mark;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        let (cols, _) = a.row(u);
        for &c in cols {
            let v = c as usize;
            if v != u && stamp[v] == allowed && visited_mark[v] != mark {
                visited_mark[v] = mark;
                level[v] = level[u] + 1;
                order.push(v);
            }
        }
    }
    order
}

/// Finds a pseudo-peripheral node of the component of `start` by repeated
/// BFS to the farthest lowest-degree node.
#[allow(clippy::too_many_arguments)] // internal helper threading scratch buffers
fn pseudo_peripheral(
    a: &CsrMatrix,
    start: usize,
    stamp: &[u32],
    allowed: u32,
    level: &mut [u32],
    visited: &mut [u32],
    mark_base: &mut u32,
    deg: &[usize],
) -> usize {
    let mut u = start;
    let mut ecc = 0u32;
    for _ in 0..8 {
        *mark_base += 1;
        let order = bfs_levels(a, u, stamp, allowed, level, visited, *mark_base);
        let Some(&farthest) = order.last() else {
            unreachable!("bfs order contains at least the start node");
        };
        let last_level = level[farthest];
        if last_level <= ecc {
            return u;
        }
        ecc = last_level;
        // Farthest node with minimum degree.
        let far: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&v| level[v] == last_level)
            .collect();
        u = far
            .into_iter()
            .min_by_key(|&v| deg[v])
            .unwrap_or_else(|| unreachable!("the farthest bfs level is nonempty"));
    }
    u
}

fn rcm_order(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    let deg = degrees(a);
    let stamp = vec![0u32; n];
    let mut level = vec![0u32; n];
    let mut visited = vec![0u32; n];
    let mut mark = 0u32;
    let mut in_order = vec![false; n];
    let mut order = Vec::with_capacity(n);

    for seed in 0..n {
        if in_order[seed] {
            continue;
        }
        let start = pseudo_peripheral(
            a,
            seed,
            &stamp,
            0,
            &mut level,
            &mut visited,
            &mut mark,
            &deg,
        );
        // Cuthill–McKee BFS with degree-sorted neighbor expansion.
        let mut queue = vec![start];
        in_order[start] = true;
        let mut head = 0;
        let mut nbrs: Vec<usize> = Vec::new();
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            order.push(u);
            nbrs.clear();
            let (cols, _) = a.row(u);
            for &c in cols {
                let v = c as usize;
                if v != u && !in_order[v] {
                    in_order[v] = true;
                    nbrs.push(v);
                }
            }
            nbrs.sort_unstable_by_key(|&v| deg[v]);
            queue.extend_from_slice(&nbrs);
        }
    }
    order.reverse();
    order
}

/// Approximate minimum degree ordering (Amestoy, Davis & Duff 1996).
///
/// Returns the elimination order in old-of-new form. See the module docs
/// for the algorithm; [`Amd`] holds its state.
fn min_degree_order(a: &CsrMatrix) -> Vec<usize> {
    if a.nrows() == 0 {
        return Vec::new();
    }
    let mut amd = Amd::new(a);
    amd.eliminate();
    amd.order()
}

/// Link terminator and "no parent" marker for the index arrays of [`Amd`].
const NONE: u32 = u32::MAX;

/// `Amd::elen` value of a node that has become an element.
const ELEMENT: usize = usize::MAX;

/// State of the approximate-minimum-degree elimination on the quotient
/// graph.
///
/// Every node `i` is, at any time, one of: a *principal variable* (`nv[i]
/// > 0`, not an element), a *non-principal variable* (`nv[i] == 0`,
/// merged into the supervariable or element `parent[i]`), a *dense*
/// variable (`nv[i] == 0`, no parent, ordered last), or an *element*
/// (`elen[i] == ELEMENT`; absorbed into `parent[i]` once `w[i] == 0`).
///
/// All adjacency lives in the flat array `iw`. A principal variable's list
/// `iw[pe[i]..pe[i] + len[i]]` holds its `elen[i]` adjacent elements first,
/// then its adjacent variables; an element's list holds its boundary
/// variables `L_e`. Lists are compacted in place as dead entries are pruned,
/// and new elements are appended at `pfree` (garbage-collecting the array
/// when it fills up).
struct Amd {
    n: usize,
    iw: Vec<u32>,
    pfree: usize,
    pe: Vec<usize>,
    len: Vec<usize>,
    elen: Vec<usize>,
    /// Supervariable size; negated while the variable sits in the pivot's
    /// boundary `L_p`. For an element: the number of nodes it eliminated.
    nv: Vec<isize>,
    /// Approximate external degree of a variable; `|L_e|` of an element.
    degree: Vec<usize>,
    /// Element workspace: `w[e] - mark = |L_e \ L_p|` during a pivot step,
    /// and `w[e] == 0` once `e` is absorbed. Also stamps list entries
    /// during supervariable comparison.
    w: Vec<isize>,
    mark: isize,
    /// Largest element degree so far (bounds how far `w` runs above `mark`).
    lemax: usize,
    /// Degree lists (`head[d]` → `next`/`last` doubly linked). While a
    /// variable is in `L_p`, `next` chains its hash bucket and `last` holds
    /// its hash.
    head: Vec<u32>,
    next: Vec<u32>,
    last: Vec<u32>,
    hhead: Vec<u32>,
    /// Assembly tree: absorbed element → absorbing element, non-principal
    /// variable → its supervariable or the element that mass-eliminated it.
    parent: Vec<u32>,
    /// Deferred dense variables, ascending.
    dense: Vec<u32>,
    /// Elements in the order they were formed.
    pivots: Vec<u32>,
    /// Nodes eliminated (or deferred) so far.
    nel: usize,
    mindeg: usize,
}

impl Amd {
    /// Builds the initial quotient graph — every node a variable, its list
    /// the off-diagonal pattern of its row without duplicates — and defers
    /// nodes of degree above `max(16, 10√n)`.
    fn new(a: &CsrMatrix) -> Self {
        let n = a.nrows();
        assert!(
            n < NONE as usize,
            "ordering supports fewer than 2^32 - 1 nodes"
        );
        let dense_above = 16usize.max((10.0 * (n as f64).sqrt()) as usize);

        // Distinct off-diagonal neighbours per node (rows may repeat a column).
        let mut stamp = vec![NONE; n];
        let is_dense: Vec<bool> = (0..n)
            .map(|i| {
                let mut deg = 0;
                for &c in a.row(i).0 {
                    if c as usize != i && stamp[c as usize] != i as u32 {
                        stamp[c as usize] = i as u32;
                        deg += 1;
                    }
                }
                deg > dense_above
            })
            .collect();

        // Lists of the sparse nodes, with every edge to a dense node dropped.
        stamp.fill(NONE);
        let mut iw = Vec::with_capacity(a.nnz());
        let mut pe = vec![0usize; n];
        let mut len = vec![0usize; n];
        for i in 0..n {
            pe[i] = iw.len();
            if is_dense[i] {
                continue;
            }
            for &c in a.row(i).0 {
                let j = c as usize;
                if j != i && !is_dense[j] && stamp[j] != i as u32 {
                    stamp[j] = i as u32;
                    iw.push(c);
                }
            }
            len[i] = iw.len() - pe[i];
        }
        // Elbow room for new elements; `collect_garbage` compacts the
        // array when it runs out.
        let pfree = iw.len();
        iw.resize(pfree + pfree / 5 + 2 * n, 0);

        let mut amd = Amd {
            n,
            iw,
            pfree,
            pe,
            degree: len.clone(),
            len,
            elen: vec![0; n],
            nv: vec![1; n],
            w: vec![1; n],
            mark: 2,
            lemax: 0,
            head: vec![NONE; n],
            next: vec![NONE; n],
            last: vec![NONE; n],
            hhead: vec![NONE; n],
            parent: vec![NONE; n],
            dense: Vec::new(),
            pivots: Vec::new(),
            nel: 0,
            mindeg: 0,
        };
        for (i, &dense) in is_dense.iter().enumerate() {
            if dense {
                amd.nv[i] = 0;
                amd.dense.push(i as u32);
                amd.nel += 1;
            } else if amd.degree[i] == 0 {
                // Isolated: an element with an empty boundary right away.
                amd.elen[i] = ELEMENT;
                amd.w[i] = 0;
                amd.pivots.push(i as u32);
                amd.nel += 1;
            } else {
                amd.link(i);
            }
        }
        amd
    }

    /// Pushes variable `i` onto the front of the list of its degree.
    fn link(&mut self, i: usize) {
        let d = self.degree[i];
        let h = self.head[d];
        if h != NONE {
            self.last[h as usize] = i as u32;
        }
        self.next[i] = h;
        self.last[i] = NONE;
        self.head[d] = i as u32;
    }

    /// Removes variable `i` from its degree list.
    fn unlink(&mut self, i: usize) {
        let (nx, lt) = (self.next[i], self.last[i]);
        if nx != NONE {
            self.last[nx as usize] = lt;
        }
        if lt != NONE {
            self.next[lt as usize] = nx;
        } else {
            self.head[self.degree[i]] = nx;
        }
    }

    /// Returns a mark above every live `w` entry, resetting the live
    /// entries to 1 before the counter could overflow.
    fn fresh_mark(&mut self, mark: isize) -> isize {
        if mark < isize::MAX / 2 {
            return mark;
        }
        for x in self.w.iter_mut().filter(|x| **x != 0) {
            *x = 1;
        }
        2
    }

    /// Runs pivot steps until every node is eliminated or deferred.
    fn eliminate(&mut self) {
        while self.nel < self.n {
            self.step();
        }
    }

    /// Eliminates a variable of least approximate degree.
    fn step(&mut self) {
        let k = loop {
            let k = self.head[self.mindeg];
            if k != NONE {
                break k as usize;
            }
            self.mindeg += 1;
        };
        self.unlink(k);
        self.pivots.push(k as u32);
        self.pivot(k);
    }

    /// Eliminates variable `k`: forms the new element `k`, updates the
    /// approximate degrees of its boundary, merges indistinguishable
    /// boundary variables and requeues the survivors.
    fn pivot(&mut self, k: usize) {
        let elenk = self.elen[k];
        let mut nvk = self.nv[k];
        self.nel += nvk as usize;
        if elenk > 0 && self.pfree + self.mindeg >= self.iw.len() {
            self.collect_garbage(self.mindeg);
        }

        // L_k: the live variables of k's list and of its elements' lists,
        // each flagged by a negated nv. Built in place when k has no
        // elements (L_k is then a subset of k's own list), else appended.
        let mut dk = 0usize;
        self.nv[k] = -nvk;
        let mut p = self.pe[k];
        let pk1 = if elenk == 0 { p } else { self.pfree };
        let mut pk2 = pk1;
        for k1 in 0..=elenk {
            let (e, mut pj, ln) = if k1 == elenk {
                (k, p, self.len[k] - elenk)
            } else {
                let e = self.iw[p] as usize;
                p += 1;
                debug_assert!(self.w[e] != 0, "absorbed element {e} left in a list");
                (e, self.pe[e], self.len[e])
            };
            for _ in 0..ln {
                let i = self.iw[pj] as usize;
                pj += 1;
                let nvi = self.nv[i];
                if nvi <= 0 {
                    continue;
                }
                dk += nvi as usize;
                self.nv[i] = -nvi;
                self.iw[pk2] = i as u32;
                pk2 += 1;
                self.unlink(i);
            }
            if e != k {
                // Every element adjacent to the pivot is absorbed into it.
                self.parent[e] = k as u32;
                self.w[e] = 0;
            }
        }
        if elenk != 0 {
            self.pfree = pk2;
        }
        self.degree[k] = dk;
        self.pe[k] = pk1;
        self.len[k] = pk2 - pk1;
        self.elen[k] = ELEMENT;

        // |L_e \ L_k| for every element e adjacent to L_k, by subtracting
        // each boundary variable's weight from |L_e| (first sight sets it).
        self.mark = self.fresh_mark(self.mark);
        let mark = self.mark;
        for pk in pk1..pk2 {
            let i = self.iw[pk] as usize;
            let eln = self.elen[i];
            if eln == 0 {
                continue;
            }
            let nvi = -self.nv[i];
            for p in self.pe[i]..self.pe[i] + eln {
                let e = self.iw[p] as usize;
                if self.w[e] >= mark {
                    self.w[e] -= nvi;
                } else if self.w[e] != 0 {
                    self.w[e] = self.degree[e] as isize + mark - nvi;
                }
            }
        }

        // Approximate degrees. Each boundary variable's list is pruned of
        // absorbed elements and of variables now covered by k; an element
        // with nothing outside L_k is absorbed too (aggressive absorption);
        // a variable left with only k is mass-eliminated with it.
        for pk in pk1..pk2 {
            let i = self.iw[pk] as usize;
            let p1 = self.pe[i];
            let p2 = p1 + self.elen[i];
            let mut pn = p1;
            let mut h = 0u64;
            let mut d = 0usize;
            for p in p1..p2 {
                let e = self.iw[p] as usize;
                if self.w[e] == 0 {
                    continue;
                }
                let dext = self.w[e] - mark;
                if dext > 0 {
                    d += dext as usize;
                    self.iw[pn] = e as u32;
                    pn += 1;
                    h = h.wrapping_add(e as u64);
                } else {
                    self.parent[e] = k as u32;
                    self.w[e] = 0;
                }
            }
            self.elen[i] = pn - p1 + 1;
            let p3 = pn;
            for p in p2..p1 + self.len[i] {
                let j = self.iw[p] as usize;
                let nvj = self.nv[j];
                if nvj <= 0 {
                    continue;
                }
                d += nvj as usize;
                self.iw[pn] = j as u32;
                pn += 1;
                h = h.wrapping_add(j as u64);
            }
            if d == 0 {
                let nvi = -self.nv[i];
                self.parent[i] = k as u32;
                dk -= nvi as usize;
                nvk += nvi;
                self.nel += nvi as usize;
                self.nv[i] = 0;
            } else {
                self.degree[i] = self.degree[i].min(d);
                // k goes first; the first kept element and variable move
                // back one slot. The pivot (or an element it absorbed)
                // was pruned from this list, so the slot at `pn` is free.
                self.iw[pn] = self.iw[p3];
                self.iw[p3] = self.iw[p1];
                self.iw[p1] = k as u32;
                self.len[i] = pn - p1 + 1;
                let bucket = (h % self.n as u64) as usize;
                self.next[i] = self.hhead[bucket];
                self.hhead[bucket] = i as u32;
                self.last[i] = bucket as u32;
            }
        }
        self.degree[k] = dk;
        self.lemax = self.lemax.max(dk);
        self.mark = self.fresh_mark(mark + self.lemax as isize);

        self.merge_indistinguishable(pk1, pk2);

        // Requeue the surviving boundary variables with their external
        // degrees, and shrink L_k to them.
        let mut p = pk1;
        for pk in pk1..pk2 {
            let i = self.iw[pk] as usize;
            let nvi = -self.nv[i];
            if nvi <= 0 {
                continue;
            }
            self.nv[i] = nvi;
            let nvi = nvi as usize;
            let d = (self.degree[i] + dk - nvi).min(self.n - self.nel - nvi);
            self.degree[i] = d;
            self.link(i);
            self.mindeg = self.mindeg.min(d);
            self.iw[p] = i as u32;
            p += 1;
        }
        self.nv[k] = nvk;
        self.len[k] = p - pk1;
        if self.len[k] == 0 {
            // Nothing left to couple to: k is a root of the assembly tree.
            self.w[k] = 0;
        }
        if elenk != 0 {
            self.pfree = p;
        }
    }

    /// Supervariable detection: boundary variables in the same hash bucket
    /// whose lists are equal as sets are merged into the first of them.
    fn merge_indistinguishable(&mut self, pk1: usize, pk2: usize) {
        for pk in pk1..pk2 {
            let i0 = self.iw[pk] as usize;
            if self.nv[i0] >= 0 {
                continue;
            }
            let bucket = self.last[i0] as usize;
            let mut i = self.hhead[bucket];
            self.hhead[bucket] = NONE;
            while i != NONE && self.next[i as usize] != NONE {
                let iu = i as usize;
                let (ln, eln) = (self.len[iu], self.elen[iu]);
                // Stamp i's list past its leading k, which every list shares.
                for p in self.pe[iu] + 1..self.pe[iu] + ln {
                    self.w[self.iw[p] as usize] = self.mark;
                }
                let mut jlast = iu;
                let mut j = self.next[iu];
                while j != NONE {
                    let ju = j as usize;
                    let same = self.len[ju] == ln
                        && self.elen[ju] == eln
                        && (self.pe[ju] + 1..self.pe[ju] + ln)
                            .all(|p| self.w[self.iw[p] as usize] == self.mark);
                    j = self.next[ju];
                    if same {
                        self.parent[ju] = i;
                        self.nv[iu] += self.nv[ju];
                        self.nv[ju] = 0;
                        self.next[jlast] = j;
                    } else {
                        jlast = ju;
                    }
                }
                i = self.next[iu];
                self.mark += 1;
            }
        }
    }

    /// Compacts the live lists to the front of `iw`, growing it if `need`
    /// free slots are still missing afterwards.
    fn collect_garbage(&mut self, need: usize) {
        let mut live: Vec<u32> = (0..self.n)
            .filter(|&j| {
                if self.elen[j] == ELEMENT {
                    self.w[j] != 0 && self.len[j] > 0
                } else {
                    self.nv[j] > 0
                }
            })
            .map(|j| j as u32)
            .collect();
        live.sort_unstable_by_key(|&j| self.pe[j as usize]);
        let mut q = 0;
        for j in live {
            let (p, l) = (self.pe[j as usize], self.len[j as usize]);
            self.iw.copy_within(p..p + l, q);
            self.pe[j as usize] = q;
            q += l;
        }
        self.pfree = q;
        if q + need >= self.iw.len() {
            self.iw.resize(q + need + self.n, 0);
        }
    }

    /// The elimination order: the elements level by level up the
    /// assembly tree (by height above its leaves; ties in pivot order),
    /// each right after the variables merged into it, then the deferred
    /// dense nodes. Reuses the degree-list arrays, which elimination has
    /// emptied.
    fn order(mut self) -> Vec<usize> {
        let n = self.n;
        // The lists are no longer needed; release them first.
        self.iw = Vec::new();
        // Merged variables hang off their representative as child lists.
        let (first, sibling) = (&mut self.head, &mut self.next);
        first.fill(NONE);
        for j in (0..n).rev() {
            let p = self.parent[j];
            if p != NONE && self.elen[j] != ELEMENT {
                sibling[j] = first[p as usize];
                first[p as usize] = j as u32;
            }
        }
        // An element is absorbed only by a later pivot, so one pass in
        // pivot order settles every height.
        let height = &mut self.last;
        height.fill(0);
        for &e in &self.pivots {
            let p = self.parent[e as usize];
            if p != NONE {
                height[p as usize] = height[p as usize].max(height[e as usize] + 1);
            }
        }
        self.pivots.sort_by_key(|&e| height[e as usize]);

        let mut order = Vec::with_capacity(n);
        let mut stack = Vec::new();
        for &e in &self.pivots {
            let start = order.len();
            stack.push(e);
            while let Some(v) = stack.pop() {
                order.push(v as usize);
                let mut c = first[v as usize];
                while c != NONE {
                    stack.push(c);
                    c = sibling[c as usize];
                }
            }
            order[start..].reverse();
        }
        order.extend(self.dense.iter().map(|&d| d as usize));
        debug_assert_eq!(order.len(), n, "assembly tree must cover every node");
        order
    }
}

/// Nested dissection via BFS level-set separators.
///
/// Each region is bisected by the middle BFS level from a pseudo-peripheral
/// start; the two halves are ordered first (recursively) and the separator
/// last, the classic fill-reducing recipe for mesh-like graphs.
fn nested_dissection_order(a: &CsrMatrix) -> Vec<usize> {
    const LEAF: usize = 48;
    let n = a.nrows();
    let deg = degrees(a);
    let mut region = vec![0u32; n]; // current region id per node
    let mut level = vec![0u32; n];
    let mut visited = vec![0u32; n];
    let mut mark = 0u32;
    let mut next_region = 1u32;
    let mut order = Vec::with_capacity(n);

    /// Work items: either dissect a region or append a finished separator.
    enum Task {
        Region(u32, Vec<usize>),
        Emit(Vec<usize>),
    }

    let mut stack = vec![Task::Region(0, (0..n).collect())];
    while let Some(task) = stack.pop() {
        let (rid, nodes) = match task {
            Task::Emit(sep) => {
                order.extend(sep);
                continue;
            }
            Task::Region(rid, nodes) => (rid, nodes),
        };
        if nodes.is_empty() {
            continue;
        }
        // Decompose the region into connected components.
        mark += 1;
        let comp_mark = mark;
        let mut comps: Vec<Vec<usize>> = Vec::new();
        for &s in &nodes {
            if visited[s] == comp_mark || region[s] != rid {
                continue;
            }
            comps.push(bfs_levels(
                a,
                s,
                &region,
                rid,
                &mut level,
                &mut visited,
                comp_mark,
            ));
        }
        for comp in comps {
            if comp.len() <= LEAF {
                order.extend(comp);
                continue;
            }
            let start = pseudo_peripheral(
                a,
                comp[0],
                &region,
                rid,
                &mut level,
                &mut visited,
                &mut mark,
                &deg,
            );
            mark += 1;
            let bfs = bfs_levels(a, start, &region, rid, &mut level, &mut visited, mark);
            let Some(&deepest) = bfs.last() else {
                unreachable!("bfs order contains at least the start node");
            };
            let depth = level[deepest];
            if depth < 2 {
                order.extend(bfs);
                continue;
            }
            let mid = depth / 2;
            let mut part_a = Vec::new();
            let mut part_b = Vec::new();
            let mut sep = Vec::new();
            for &v in &bfs {
                if level[v] < mid {
                    part_a.push(v);
                } else if level[v] > mid {
                    part_b.push(v);
                } else {
                    sep.push(v);
                }
            }
            let ra = next_region;
            let rb = next_region + 1;
            next_region += 2;
            for &v in &part_a {
                region[v] = ra;
            }
            for &v in &part_b {
                region[v] = rb;
            }
            // LIFO: push the separator first so it is appended only after
            // both halves (pushed above it) have fully emitted.
            stack.push(Task::Emit(sep));
            stack.push(Task::Region(rb, part_b));
            stack.push(Task::Region(ra, part_a));
        }
    }
    order
}

/// A k-way vertex-separator decomposition of a symmetric sparsity
/// pattern: interior *domains* that share no edge with one another, plus
/// one *separator* carrying every cross-domain coupling.
///
/// Produced by [`vertex_separator`]; consumed by the sharded storage
/// backend ([`crate::ShardedBackend`]) and the substructured solver in
/// `sass-solver`. The decomposition is purely structural — matrix values
/// never influence it — and deterministic for a given pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeparatorParts {
    /// Domain id per vertex; [`SeparatorParts::SEPARATOR`] marks
    /// separator vertices.
    domain_of: Vec<u32>,
    /// Vertices of each domain, ascending in original numbering.
    domains: Vec<Vec<usize>>,
    /// Separator vertices, ascending in original numbering.
    separator: Vec<usize>,
}

impl SeparatorParts {
    /// Marker in [`SeparatorParts::domain_of`] for separator vertices.
    pub const SEPARATOR: u32 = u32::MAX;

    /// Number of interior domains.
    pub fn domain_count(&self) -> usize {
        self.domains.len()
    }

    /// Vertices of domain `d`, ascending in original numbering.
    ///
    /// # Panics
    ///
    /// Panics if `d >= domain_count()`.
    pub fn domain(&self, d: usize) -> &[usize] {
        &self.domains[d]
    }

    /// Separator vertices, ascending in original numbering.
    pub fn separator(&self) -> &[usize] {
        &self.separator
    }

    /// Domain id per vertex ([`SeparatorParts::SEPARATOR`] = separator).
    pub fn domain_of(&self) -> &[u32] {
        &self.domain_of
    }

    /// Total vertex count.
    pub fn n(&self) -> usize {
        self.domain_of.len()
    }

    /// The stable renumbering induced by the decomposition, in
    /// old-of-new form: domain 0's vertices first (in ascending original
    /// order), then domain 1's, …, and the separator last. Symmetrically
    /// permuting the matrix by this ordering produces the block-arrow
    /// shape the substructured solver factorizes.
    pub fn renumbering(&self) -> crate::Result<Permutation> {
        let mut old_of_new = Vec::with_capacity(self.n());
        for d in &self.domains {
            old_of_new.extend_from_slice(d);
        }
        old_of_new.extend_from_slice(&self.separator);
        Permutation::from_old_of_new(old_of_new)
    }

    /// Start offset of each domain in the renumbering, with a final
    /// entry at the separator start: domain `d` occupies new indices
    /// `offsets()[d] .. offsets()[d + 1]`, and the separator occupies
    /// `offsets()[domain_count()] .. n()`.
    pub fn offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.domains.len() + 1);
        let mut acc = 0usize;
        for d in &self.domains {
            offsets.push(acc);
            acc += d.len();
        }
        offsets.push(acc);
        offsets
    }
}

/// Splits the pattern of `a` into (at least) `k` interior domains plus
/// one vertex separator, such that **no edge connects two distinct
/// domains** — every cross-domain path runs through the separator.
///
/// Reuses the BFS level-set machinery behind
/// [`OrderingKind::NestedDissection`]: the largest region is repeatedly
/// bisected at the middle BFS level from a pseudo-peripheral start, the
/// middle level joining the global separator, until `k` domains exist or
/// nothing splittable remains (tiny or shallow regions stop splitting,
/// so fewer than `k` domains can come back). Connected components split
/// for free — a pattern with `≥ k` components yields an **empty**
/// separator — which is also why more than `k` domains can come back on
/// disconnected patterns.
///
/// The values of `a` are ignored; the pattern is assumed structurally
/// symmetric and, unlike in [`compute`], not checked.
pub fn vertex_separator(a: &CsrMatrix, k: usize) -> SeparatorParts {
    let n = a.nrows();
    let k = k.max(1);
    let deg = degrees(a);
    let mut region = vec![0u32; n];
    let mut level = vec![0u32; n];
    let mut visited = vec![0u32; n];
    let mut mark = 0u32;
    let mut next_region = 0u32;
    let mut separator: Vec<usize> = Vec::new();

    // Seed regions: the connected components of the whole pattern, each
    // re-stamped with its own region id.
    mark += 1;
    let comp_mark = mark;
    let mut active: Vec<(u32, Vec<usize>)> = Vec::new();
    for s in 0..n {
        if visited[s] == comp_mark {
            continue;
        }
        let comp = bfs_levels(a, s, &region, 0, &mut level, &mut visited, comp_mark);
        let rid = next_region;
        next_region += 1;
        for &v in &comp {
            region[v] = rid;
        }
        active.push((rid, comp));
    }

    // Bisect the largest active region until k domains exist. Regions too
    // small or too shallow to split are frozen as final domains.
    let mut frozen: Vec<Vec<usize>> = Vec::new();
    while active.len() + frozen.len() < k && !active.is_empty() {
        let pos = active
            .iter()
            .enumerate()
            .max_by_key(|(_, r)| r.1.len())
            .map(|(i, _)| i)
            .unwrap_or_else(|| unreachable!("`active` is nonempty"));
        let (rid, nodes) = active.swap_remove(pos);
        if nodes.len() < 3 {
            // A split always produces two nonempty halves plus a
            // nonempty middle level, so fewer than 3 vertices can't.
            frozen.push(nodes);
            continue;
        }
        let start = pseudo_peripheral(
            a,
            nodes[0],
            &region,
            rid,
            &mut level,
            &mut visited,
            &mut mark,
            &deg,
        );
        mark += 1;
        let bfs = bfs_levels(a, start, &region, rid, &mut level, &mut visited, mark);
        if bfs.len() < nodes.len() {
            // An earlier separator cut this region into pieces the BFS
            // cannot bridge: split off the reached piece for free (no
            // separator vertex needed — the pieces are already
            // non-adjacent) and requeue the remainder.
            let rb = next_region;
            next_region += 1;
            let mut rest = Vec::with_capacity(nodes.len() - bfs.len());
            for &v in &nodes {
                if visited[v] != mark {
                    region[v] = rb;
                    rest.push(v);
                }
            }
            active.push((rid, bfs));
            active.push((rb, rest));
            continue;
        }
        let Some(&deepest) = bfs.last() else {
            unreachable!("bfs order contains at least the start node");
        };
        let depth = level[deepest];
        if depth < 2 {
            // Diameter ≤ 2 in this region: any middle level would leave
            // an empty half; keep it whole.
            frozen.push(nodes);
            continue;
        }
        let mid = depth / 2;
        let mut part_a = Vec::new();
        let mut part_b = Vec::new();
        for &v in &bfs {
            if level[v] < mid {
                part_a.push(v);
            } else if level[v] > mid {
                // `part_b` keeps `rid`'s stamp replaced below.
                part_b.push(v);
            } else {
                region[v] = SEP_STAMP;
                separator.push(v);
            }
        }
        // BFS levels differ by at most 1 across an edge, so `part_a`
        // (levels < mid) and `part_b` (levels > mid) are non-adjacent.
        let rb = next_region;
        next_region += 1;
        for &v in &part_b {
            region[v] = rb;
        }
        active.push((rid, part_a));
        active.push((rb, part_b));
    }

    // Stable domain order: ascending by smallest original vertex.
    let mut domains: Vec<Vec<usize>> = active
        .into_iter()
        .map(|(_, nodes)| nodes)
        .chain(frozen)
        .map(|mut nodes| {
            nodes.sort_unstable();
            nodes
        })
        .collect();
    domains.sort_unstable_by_key(|d| d.first().copied().unwrap_or(usize::MAX));
    separator.sort_unstable();

    let mut domain_of = vec![SeparatorParts::SEPARATOR; n];
    for (d, nodes) in domains.iter().enumerate() {
        for &v in nodes {
            domain_of[v] = d as u32;
        }
    }
    debug_assert_eq!(
        domains.iter().map(Vec::len).sum::<usize>() + separator.len(),
        n,
        "vertex_separator: parts must cover every vertex exactly once"
    );
    #[cfg(debug_assertions)]
    for u in 0..n {
        let (cols, _) = a.row(u);
        for &c in cols {
            let v = c as usize;
            debug_assert!(
                u == v
                    || domain_of[u] == domain_of[v]
                    || domain_of[u] == SeparatorParts::SEPARATOR
                    || domain_of[v] == SeparatorParts::SEPARATOR,
                "edge ({u}, {v}) crosses domains {} and {}",
                domain_of[u],
                domain_of[v]
            );
        }
    }
    SeparatorParts {
        domain_of,
        domains,
        separator,
    }
}

/// Region stamp marking separator vertices during [`vertex_separator`]'s
/// bisection loop (never a valid region id: ids count up from 0 and a
/// pattern has at most `u32::MAX / 2` split steps).
const SEP_STAMP: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// 2-D grid Laplacian pattern (values irrelevant for ordering).
    fn grid_pattern(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooMatrix::new(n, n);
        let id = |x: usize, y: usize| y * nx + x;
        for y in 0..ny {
            for x in 0..nx {
                coo.push(id(x, y), id(x, y), 4.0);
                if x + 1 < nx {
                    coo.push_sym(id(x, y), id(x + 1, y), -1.0);
                }
                if y + 1 < ny {
                    coo.push_sym(id(x, y), id(x, y + 1), -1.0);
                }
            }
        }
        coo.to_csr()
    }

    fn assert_is_permutation(p: &Permutation, n: usize) {
        assert_eq!(p.len(), n);
        let mut seen = vec![false; n];
        for &v in p.old_of_new() {
            assert!(!seen[v], "duplicate index {v}");
            seen[v] = true;
        }
    }

    #[test]
    fn all_kinds_produce_permutations() {
        let a = grid_pattern(7, 5);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let p = compute(&a, kind).unwrap();
            assert_is_permutation(&p, 35);
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint triangles.
        let mut coo = CooMatrix::new(6, 6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            coo.push_sym(u, v, 1.0);
        }
        for i in 0..6 {
            coo.push(i, i, 2.0);
        }
        let a = coo.to_csr();
        for kind in [
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let p = compute(&a, kind).unwrap();
            assert_is_permutation(&p, 6);
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty = CooMatrix::new(0, 0).to_csr();
        let single = CsrMatrix::identity(1);
        for kind in [
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            assert_eq!(compute(&empty, kind).unwrap().len(), 0);
            assert_eq!(compute(&single, kind).unwrap().len(), 1);
        }
    }

    /// Fill count of the LDL factor under a given ordering.
    fn fill(a: &CsrMatrix, kind: OrderingKind) -> usize {
        crate::LdlFactor::new(a, kind).unwrap().nnz_l()
    }

    #[test]
    fn min_degree_is_fill_free_on_trees() {
        // A path graph (tridiagonal SPD): no fill under min-degree.
        let n = 64;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i + 1 < n {
                coo.push_sym(i, i + 1, -1.0);
            }
        }
        let a = coo.to_csr();
        assert_eq!(fill(&a, OrderingKind::MinDegree), n - 1);
    }

    #[test]
    fn fill_reducing_orderings_beat_natural_on_grids() {
        let a = grid_pattern(16, 16);
        // Make it SPD so LdlFactor succeeds: the pattern already has a
        // dominant diagonal of 4 with at most 4 off-diagonal -1 entries.
        let natural = fill(&a, OrderingKind::Natural);
        let nd = fill(&a, OrderingKind::NestedDissection);
        let md = fill(&a, OrderingKind::MinDegree);
        assert!(
            nd < natural,
            "nested dissection fill {nd} >= natural {natural}"
        );
        assert!(md < natural, "min degree fill {md} >= natural {natural}");
    }

    #[test]
    fn star_graph_orders_center_last_under_min_degree() {
        // Star: eliminating the hub first would create a clique; min-degree
        // must pick the leaves first.
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 0, n as f64);
        for i in 1..n {
            coo.push(i, i, 2.0);
            coo.push_sym(0, i, -1.0);
        }
        let a = coo.to_csr();
        let p = compute(&a, OrderingKind::MinDegree).unwrap();
        // Once only the hub and one leaf remain both have degree 1, so the
        // hub must be one of the last two eliminated.
        let pos_of_hub = p.new_of_old()[0];
        assert!(
            pos_of_hub >= n - 2,
            "hub eliminated too early at {pos_of_hub}"
        );
        assert_eq!(fill(&a, OrderingKind::MinDegree), n - 1);
    }

    #[test]
    fn dense_hub_is_deferred_to_the_end() {
        // Star on n = 400 nodes: the hub's degree 399 exceeds
        // max(16, 10·√400) = 200, so it is ordered last and the factor
        // holds exactly the n - 1 edges.
        let n = 400;
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 0, n as f64);
        for i in 1..n {
            coo.push(i, i, 2.0);
            coo.push_sym(0, i, -1.0);
        }
        let star = coo.to_csr();
        let p = compute(&star, OrderingKind::MinDegree).unwrap();
        assert_eq!(p.new_of_old()[0], n - 1, "hub not ordered last");
        assert_eq!(fill(&star, OrderingKind::MinDegree), n - 1);

        // A hub on a 20×20 grid: deferral removes the hub from the
        // elimination altogether, so the grid is ordered exactly as without
        // it and the hub's row of L adds one entry per grid node.
        let (side, hub) = (20, 400);
        let mut coo = CooMatrix::new(hub + 1, hub + 1);
        for i in 0..hub {
            let (x, y) = (i % side, i / side);
            coo.push(i, i, 6.0);
            coo.push_sym(i, hub, -1.0);
            if x + 1 < side {
                coo.push_sym(i, i + 1, -1.0);
            }
            if y + 1 < side {
                coo.push_sym(i, i + side, -1.0);
            }
        }
        coo.push(hub, hub, (hub + 1) as f64);
        let with_hub = coo.to_csr();
        let p = compute(&with_hub, OrderingKind::MinDegree).unwrap();
        assert_eq!(p.new_of_old()[hub], hub, "hub not ordered last");
        let grid = grid_pattern(side, side);
        assert_eq!(
            p.old_of_new()[..hub],
            compute(&grid, OrderingKind::MinDegree)
                .unwrap()
                .old_of_new()[..]
        );
        assert_eq!(
            fill(&with_hub, OrderingKind::MinDegree),
            fill(&grid, OrderingKind::MinDegree) + hub
        );
    }

    #[test]
    fn symmetric_pattern_check_ignores_values_order_and_duplicates() {
        // Rows unsorted, (0, 2) stored twice, values asymmetric.
        let a = CsrMatrix::from_raw_parts(
            3,
            3,
            vec![0, 3, 4, 6],
            vec![2, 0, 2, 1, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        );
        assert_eq!(require_symmetric_pattern(&a), Ok(()));
        // Without the (2, 0) twin it fails; a non-square shape too.
        let b =
            CsrMatrix::from_raw_parts(3, 3, vec![0, 3, 4, 5], vec![2, 0, 2, 1, 2], vec![1.0; 5]);
        assert_eq!(
            require_symmetric_pattern(&b),
            Err(SparseError::NotSymmetric)
        );
        let wide = CsrMatrix::from_raw_parts(1, 2, vec![0, 0], vec![], vec![]);
        assert!(matches!(
            require_symmetric_pattern(&wide),
            Err(SparseError::NotSquare { .. })
        ));
        assert_eq!(require_symmetric_pattern(&CsrMatrix::identity(0)), Ok(()));
    }

    /// The quotient graph after eliminating every node of `a`.
    fn eliminated(a: &CsrMatrix) -> Amd {
        let mut amd = Amd::new(a);
        amd.eliminate();
        amd
    }

    #[test]
    fn min_degree_merges_indistinguishable_hubs() {
        // K(2, 6): both hubs see the same six leaves. Once the first leaf
        // is eliminated they are indistinguishable, and one is merged into
        // the other as a supervariable of two nodes.
        let mut coo = CooMatrix::new(8, 8);
        for leaf in 2..8 {
            coo.push_sym(0, leaf, -1.0);
            coo.push_sym(1, leaf, -1.0);
        }
        let mut amd = Amd::new(&coo.to_csr());
        amd.step();
        let mut sizes = [amd.nv[0], amd.nv[1]];
        sizes.sort_unstable();
        assert_eq!(sizes, [0, 2]);
    }

    #[test]
    fn min_degree_absorbs_covered_elements_aggressively() {
        // Star: a leaf's element has boundary {hub}, which the next leaf's
        // element covers without being adjacent to it, so it is absorbed
        // there instead of waiting for the hub.
        let mut coo = CooMatrix::new(9, 9);
        for leaf in 1..9 {
            coo.push_sym(0, leaf, -1.0);
        }
        let amd = eliminated(&coo.to_csr());
        assert!((1..9).any(|leaf| amd.parent[leaf] != NONE && amd.parent[leaf] != 0));
    }

    #[test]
    fn min_degree_garbage_collection_preserves_the_order() {
        // Without elbow room every pivot that forms an element from
        // others compacts (and grows) the list array; compaction keeps
        // each list's order, so the result must not change.
        let a = grid_pattern(23, 17);
        let mut tight = Amd::new(&a);
        tight.iw.truncate(tight.pfree);
        tight.eliminate();
        assert_eq!(tight.order(), min_degree_order(&a));
    }

    /// Every vertex lands in exactly one part, domains are pairwise
    /// non-adjacent, and the renumbering is a permutation.
    fn check_parts(a: &CsrMatrix, parts: &SeparatorParts) {
        let n = a.nrows();
        assert_eq!(parts.n(), n);
        let mut seen = vec![false; n];
        for d in 0..parts.domain_count() {
            for &v in parts.domain(d) {
                assert!(!seen[v], "vertex {v} in two parts");
                seen[v] = true;
                assert_eq!(parts.domain_of()[v], d as u32);
            }
        }
        for &v in parts.separator() {
            assert!(!seen[v], "separator vertex {v} also in a domain");
            seen[v] = true;
            assert_eq!(parts.domain_of()[v], SeparatorParts::SEPARATOR);
        }
        assert!(seen.iter().all(|&s| s), "uncovered vertex");
        for u in 0..n {
            let (cols, _) = a.row(u);
            for &c in cols {
                let v = c as usize;
                let (du, dv) = (parts.domain_of()[u], parts.domain_of()[v]);
                assert!(
                    u == v
                        || du == dv
                        || du == SeparatorParts::SEPARATOR
                        || dv == SeparatorParts::SEPARATOR,
                    "edge ({u},{v}) crosses domains"
                );
            }
        }
        assert_is_permutation(&parts.renumbering().unwrap(), n);
        let offsets = parts.offsets();
        assert_eq!(offsets.len(), parts.domain_count() + 1);
        assert_eq!(
            offsets.last().copied().unwrap(),
            n - parts.separator().len()
        );
    }

    #[test]
    fn vertex_separator_splits_grid_into_k_domains() {
        let a = grid_pattern(16, 16);
        for k in [1usize, 2, 3, 4, 7] {
            let parts = vertex_separator(&a, k);
            check_parts(&a, &parts);
            assert!(
                parts.domain_count() >= k.min(2),
                "k={k}: only {} domains",
                parts.domain_count()
            );
            if k == 1 {
                assert_eq!(parts.domain_count(), 1);
                assert!(parts.separator().is_empty());
            } else {
                // A 16×16 grid has plenty of depth; separators must stay
                // a small fraction of the graph.
                assert!(parts.separator().len() < 256 / 2);
            }
        }
    }

    #[test]
    fn vertex_separator_disconnected_components_split_free() {
        // Two disjoint triangles: two domains, empty separator.
        let mut coo = CooMatrix::new(6, 6);
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            coo.push_sym(u, v, 1.0);
        }
        for i in 0..6 {
            coo.push(i, i, 2.0);
        }
        let a = coo.to_csr();
        let parts = vertex_separator(&a, 2);
        check_parts(&a, &parts);
        assert_eq!(parts.domain_count(), 2);
        assert!(parts.separator().is_empty());
    }

    /// Regression: bisecting a star-of-paths cuts out the hub, leaving a
    /// region of several mutually-disconnected legs; re-bisecting that
    /// region must split off the BFS-unreachable legs for free instead
    /// of silently dropping them from every part list.
    #[test]
    fn vertex_separator_rebisects_internally_disconnected_regions() {
        // Hub vertex 0 with four paths of length 10 hanging off it.
        let legs = 4;
        let len = 10;
        let n = 1 + legs * len;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
        }
        for leg in 0..legs {
            let base = 1 + leg * len;
            coo.push_sym(0, base, -1.0);
            for i in 0..len - 1 {
                coo.push_sym(base + i, base + i + 1, -1.0);
            }
        }
        let a = coo.to_csr();
        for k in [2usize, 3, 4, 6] {
            let parts = vertex_separator(&a, k);
            check_parts(&a, &parts);
            assert!(parts.domain_count() >= k.min(2), "k={k}");
        }
    }

    #[test]
    fn vertex_separator_small_graphs_degrade_gracefully() {
        // Too small to split: one domain, no separator.
        let single = CsrMatrix::identity(1);
        let parts = vertex_separator(&single, 4);
        assert_eq!(parts.domain_count(), 1);
        assert!(parts.separator().is_empty());
        let empty = CooMatrix::new(0, 0).to_csr();
        let parts = vertex_separator(&empty, 4);
        assert_eq!(parts.domain_count(), 0);
        assert_eq!(parts.n(), 0);
    }

    #[test]
    fn vertex_separator_is_deterministic() {
        let a = grid_pattern(12, 9);
        assert_eq!(vertex_separator(&a, 4), vertex_separator(&a, 4));
    }
}
