//! Sparse linear algebra for large MNA systems.
//!
//! A full 32×32 active-matrix array with its column scanner attached
//! stamps a Jacobian of dimension ≈ 1800 with well under 1 % nonzeros;
//! dense LU at that size costs ~2·10⁹ flops *per Newton iteration*.
//! This module provides the sparse path: triplet assembly into CSR, a
//! fill-reducing symmetric permutation (reverse Cuthill–McKee on the
//! column-matched pattern), and a static-pivot sparse LU whose symbolic
//! factorization is computed once per netlist and reused across every
//! Newton iteration and transient timestep.
//!
//! Pivoting is purely *structural*: a maximum transversal (with
//! diagonal preference) permutes columns so the diagonal is
//! structurally nonzero — MNA voltage-source branch rows carry a zero
//! diagonal and pivot on their ±1 entries — and the numeric phase then
//! factors without value-dependent pivoting. That makes refactorization
//! after value-only updates *bit-identical* to factoring from scratch,
//! which the solver layer relies on to reuse the symbolic analysis.
//! MNA matrices tolerate static pivoting well (every node row is made
//! diagonally loaded by `gmin` and transient companion conductances),
//! and [`SparseLu::solve_refined`] adds one step of iterative
//! refinement to recover dense-LU-grade accuracy.

use crate::error::{CircuitError, Result};

/// Numeric pivot threshold, matching the dense LU's singularity test so
/// the two backends fail the same way on the same matrix.
const PIVOT_MIN: f64 = f64::MIN_POSITIVE * 16.0;

/// A growable coordinate-format (COO) matrix builder.
///
/// Duplicate entries are allowed and are summed when converted to CSR —
/// exactly what MNA stamping produces.
#[derive(Debug, Clone)]
pub struct Triplets {
    dim: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Triplets {
    /// Creates an empty builder for a `dim × dim` matrix.
    pub fn new(dim: usize) -> Self {
        Triplets {
            dim,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of pushed entries (duplicates counted).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// `true` when no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Adds `v` at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.dim && j < self.dim,
            "triplet ({i}, {j}) out of range"
        );
        self.rows.push(i as u32);
        self.cols.push(j as u32);
        self.vals.push(v);
    }
}

/// A compressed-sparse-row matrix with a *slot map* back to the triplet
/// stream that built it.
///
/// The slot map lets a caller that re-stamps the same netlist (same
/// triplet order, new values) update the CSR values in O(nnz) without
/// re-sorting — see [`CsrMatrix::set_values`].
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    dim: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets (duplicates summed) and returns
    /// it together with the slot map: `slots[k]` is the CSR value index
    /// that triplet `k` contributes to.
    ///
    /// Duplicate entries are accumulated in *push order* — the same
    /// order [`CsrMatrix::set_values`] uses — so a matrix built here is
    /// bit-identical to one refilled through the slot map from the same
    /// value stream. Floating-point addition is not associative, and
    /// MNA diagonals collect three or more stamps; without a shared
    /// accumulation order a cold build and a slot refill could differ in
    /// the last ulp, which would break the Monte-Carlo engine's
    /// cold-vs-shared bitwise-identity contract.
    pub fn from_triplets(t: &Triplets) -> (CsrMatrix, Vec<usize>) {
        let n = t.dim;
        let nt = t.len();
        let mut order: Vec<u32> = (0..nt as u32).collect();
        order.sort_unstable_by_key(|&k| (t.rows[k as usize], t.cols[k as usize]));
        let mut row_ptr = vec![0usize; n + 1];
        let mut cols = Vec::with_capacity(nt);
        let mut slots = vec![0usize; nt];
        let mut last: Option<(u32, u32)> = None;
        for &k in &order {
            let (i, j) = (t.rows[k as usize], t.cols[k as usize]);
            if last != Some((i, j)) {
                cols.push(j);
                row_ptr[i as usize + 1] += 1;
                last = Some((i, j));
            }
            slots[k as usize] = cols.len() - 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        let nnz = cols.len();
        let mut m = CsrMatrix {
            dim: n,
            row_ptr,
            cols,
            vals: vec![0.0; nnz],
        };
        m.set_values(&slots, &t.vals);
        (m, slots)
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Overwrites all values from a fresh triplet-value stream in the
    /// original push order, using the slot map from
    /// [`CsrMatrix::from_triplets`].
    ///
    /// # Panics
    ///
    /// Panics when `slots` and `tvals` have different lengths.
    pub fn set_values(&mut self, slots: &[usize], tvals: &[f64]) {
        assert_eq!(slots.len(), tvals.len(), "slot map / value stream mismatch");
        self.vals.fill(0.0);
        for (&slot, &v) in slots.iter().zip(tvals) {
            self.vals[slot] += v;
        }
    }

    /// Column indices and values of row `i`.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.cols[s..e], &self.vals[s..e])
    }

    /// Dense matrix–vector product `out = A·x`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matvec(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dim);
        assert_eq!(out.len(), self.dim);
        for (i, o) in out.iter_mut().enumerate() {
            let mut s = 0.0;
            for idx in self.row_ptr[i]..self.row_ptr[i + 1] {
                s += self.vals[idx] * x[self.cols[idx] as usize];
            }
            *o = s;
        }
    }
}

/// The symbolic part of a sparse LU factorization: permutations and the
/// filled pattern. Computed once per sparsity pattern and reused for
/// every numeric (re)factorization.
#[derive(Debug, Clone)]
pub struct SymbolicLu {
    n: usize,
    /// `row_perm[k]` = original row placed at permuted position `k`.
    row_perm: Vec<usize>,
    /// `col_perm[k]` = original column placed at permuted position `k`.
    col_perm: Vec<usize>,
    /// Filled pattern, CSR over permuted indices; each row's columns are
    /// sorted and include the diagonal.
    lu_row_ptr: Vec<usize>,
    lu_cols: Vec<u32>,
    /// Absolute index of the diagonal entry of each permuted row.
    diag: Vec<usize>,
    /// CSR entry index → LU value index (for numeric scatter).
    a_to_lu: Vec<usize>,
}

impl SymbolicLu {
    /// Analyzes a sparsity pattern: maximum-transversal column matching
    /// (diagonal-preferring), a fill-reducing ordering of the matched
    /// pattern, and the symbolic fill of the no-pivot LU.
    ///
    /// Two candidate orderings are built — reverse Cuthill–McKee and
    /// minimum degree — and the one whose symbolic factorization costs
    /// fewer multiply-adds wins. RCM suits banded/grid-like patterns;
    /// minimum degree wins decisively on hub-heavy circuit graphs
    /// (supply rails, clock nets and column selects touch hundreds of
    /// rows, which collapses the graph diameter RCM relies on).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] when the pattern is
    /// structurally singular (no perfect matching exists).
    pub fn analyze(a: &CsrMatrix) -> Result<SymbolicLu> {
        let n = a.dim;
        let (match_col, match_row) = maximum_transversal(a)?;
        let adj = matched_adjacency(a, &match_row);
        let mut best: Option<(FillPattern, Vec<usize>, usize)> = None;
        for sigma in [rcm_order(&adj), min_degree_order(&adj)] {
            let fill = fill_pattern(a, &match_row, &sigma);
            let flops = fill.flops();
            if best.as_ref().is_none_or(|&(_, _, bf)| flops < bf) {
                best = Some((fill, sigma, flops));
            }
        }
        let (fill, sigma, _) = best.expect("two candidate orderings were built");
        let FillPattern {
            lu_row_ptr,
            lu_cols,
            diag,
            colpos,
        } = fill;
        let mut inv_sigma = vec![0usize; n];
        for (k, &r) in sigma.iter().enumerate() {
            inv_sigma[r] = k;
        }

        // Map each CSR entry to its LU slot.
        let mut a_to_lu = vec![0usize; a.nnz()];
        for (i, &k) in inv_sigma.iter().enumerate() {
            let (rs, re) = (lu_row_ptr[k], lu_row_ptr[k + 1]);
            let row_cols = &lu_cols[rs..re];
            for idx in a.row_ptr[i]..a.row_ptr[i + 1] {
                let l = colpos[a.cols[idx] as usize] as u32;
                let off = row_cols
                    .binary_search(&l)
                    .expect("base entry missing from symbolic pattern");
                a_to_lu[idx] = rs + off;
            }
        }

        let row_perm = sigma;
        let mut col_perm = vec![0usize; n];
        for (k, &r) in row_perm.iter().enumerate() {
            col_perm[k] = match_col[r];
        }
        Ok(SymbolicLu {
            n,
            row_perm,
            col_perm,
            lu_row_ptr,
            lu_cols,
            diag,
            a_to_lu,
        })
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored entries in the filled L+U pattern.
    pub fn lu_nnz(&self) -> usize {
        self.lu_cols.len()
    }

    /// Multiply-add count of one numeric factorization over this
    /// pattern — the cost a better ordering minimizes.
    pub fn factor_flops(&self) -> usize {
        let mut flops = 0;
        for k in 0..self.n {
            for s in self.lu_row_ptr[k]..self.diag[k] {
                let c = self.lu_cols[s] as usize;
                flops += self.lu_row_ptr[c + 1] - self.diag[c] - 1;
            }
        }
        flops
    }
}

/// Maximum transversal (perfect matching of rows to columns along
/// structural nonzeros), preferring the diagonal, via augmenting-path
/// search with an explicit stack. Returns `(match_col, match_row)` where
/// `match_col[r]` is the column assigned to row `r`.
fn maximum_transversal(a: &CsrMatrix) -> Result<(Vec<usize>, Vec<usize>)> {
    let n = a.dim;
    let mut match_col = vec![usize::MAX; n];
    let mut match_row = vec![usize::MAX; n];
    for i in 0..n {
        let (cols, _) = a.row(i);
        if cols.binary_search(&(i as u32)).is_ok() {
            match_col[i] = i;
            match_row[i] = i;
        }
    }
    let mut visited = vec![usize::MAX; n];
    // Stack frames: (row being scanned, scan cursor, column descended
    // through to reach this row — usize::MAX at the root).
    let mut stack: Vec<(usize, usize, usize)> = Vec::new();
    for root in 0..n {
        if match_col[root] != usize::MAX {
            continue;
        }
        stack.clear();
        stack.push((root, a.row_ptr[root], usize::MAX));
        let mut found = None;
        'dfs: while let Some(frame) = stack.last_mut() {
            let r = frame.0;
            let mut advanced = None;
            while frame.1 < a.row_ptr[r + 1] {
                let j = a.cols[frame.1] as usize;
                frame.1 += 1;
                if visited[j] == root {
                    continue;
                }
                visited[j] = root;
                if match_row[j] == usize::MAX {
                    found = Some(j);
                    break 'dfs;
                }
                advanced = Some(j);
                break;
            }
            match advanced {
                Some(j) => {
                    let next = match_row[j];
                    stack.push((next, a.row_ptr[next], j));
                }
                None => {
                    stack.pop();
                }
            }
        }
        match found {
            Some(mut col) => {
                for &(row, _, via) in stack.iter().rev() {
                    match_col[row] = col;
                    match_row[col] = row;
                    col = via;
                    if col == usize::MAX {
                        break;
                    }
                }
            }
            None => return Err(CircuitError::SingularMatrix),
        }
    }
    Ok((match_col, match_row))
}

/// Symmetrized adjacency of the matched pattern: rows `i` and
/// `match_row[j]` are adjacent when row `i` holds column `j`. This is
/// the elimination graph both ordering heuristics work on.
fn matched_adjacency(a: &CsrMatrix, match_row: &[usize]) -> Vec<Vec<u32>> {
    let n = a.dim;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for i in 0..n {
        let (cols, _) = a.row(i);
        for &j in cols {
            let v = match_row[j as usize];
            if v != i {
                adj[i].push(v as u32);
                adj[v].push(i as u32);
            }
        }
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

/// The symbolic fill of one candidate ordering, plus the permuted
/// column positions it implies.
struct FillPattern {
    lu_row_ptr: Vec<usize>,
    lu_cols: Vec<u32>,
    diag: Vec<usize>,
    colpos: Vec<usize>,
}

impl FillPattern {
    /// Multiply-add count of a numeric factorization over this pattern —
    /// the ordering-selection metric.
    fn flops(&self) -> usize {
        let mut flops = 0;
        for k in 0..self.diag.len() {
            for s in self.lu_row_ptr[k]..self.diag[k] {
                let c = self.lu_cols[s] as usize;
                flops += self.lu_row_ptr[c + 1] - self.diag[c] - 1;
            }
        }
        flops
    }
}

/// Symbolic fill of the no-pivot LU under row order `sigma`, by row
/// merging: row `k`'s pattern is its base pattern unioned with the
/// U-parts of every L-column row it touches. A min-heap pops columns in
/// nondecreasing order (merged entries from row `c`'s U-part all exceed
/// `c`), so each row comes out sorted.
fn fill_pattern(a: &CsrMatrix, match_row: &[usize], sigma: &[usize]) -> FillPattern {
    let n = a.dim;
    let mut inv_sigma = vec![0usize; n];
    for (k, &r) in sigma.iter().enumerate() {
        inv_sigma[r] = k;
    }
    // Permuted column position of original column j: the row matched to
    // j sits at position inv_sigma[match_row[j]], and the diagonal pairs
    // row positions with their matched columns.
    let mut colpos = vec![0usize; n];
    for j in 0..n {
        colpos[j] = inv_sigma[match_row[j]];
    }

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut lu_row_ptr = vec![0usize; n + 1];
    let mut lu_cols: Vec<u32> = Vec::with_capacity(4 * a.nnz());
    let mut diag = vec![0usize; n];
    let mut rows: Vec<(usize, usize)> = Vec::with_capacity(n); // (start, diag offset)
    let mut mark = vec![usize::MAX; n];
    let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    for k in 0..n {
        let start = lu_cols.len();
        let (base_cols, _) = a.row(sigma[k]);
        for &j in base_cols {
            let l = colpos[j as usize] as u32;
            if mark[l as usize] != k {
                mark[l as usize] = k;
                heap.push(Reverse(l));
            }
        }
        let mut diag_off = usize::MAX;
        while let Some(Reverse(c)) = heap.pop() {
            if c as usize == k {
                diag_off = lu_cols.len() - start;
            }
            lu_cols.push(c);
            if (c as usize) < k {
                // Merge the U-part of the already-analyzed row c.
                let (rs, doff) = rows[c as usize];
                let re = lu_row_ptr[c as usize + 1];
                for &cc in &lu_cols[rs + doff + 1..re] {
                    if mark[cc as usize] != k {
                        mark[cc as usize] = k;
                        heap.push(Reverse(cc));
                    }
                }
            }
        }
        debug_assert_ne!(diag_off, usize::MAX, "matched diagonal missing from row");
        diag[k] = start + diag_off;
        lu_row_ptr[k + 1] = lu_cols.len();
        rows.push((start, diag_off));
    }
    FillPattern {
        lu_row_ptr,
        lu_cols,
        diag,
        colpos,
    }
}

/// Minimum-degree ordering with explicit fill edges and a lazily
/// invalidated heap. At each step the uneliminated vertex of smallest
/// current degree (ties by index, so the order is deterministic) is
/// eliminated and its neighbors are pairwise connected. Hub vertices
/// (supply rails, clock nets) sort to the very end, confining their
/// dense fill to a small trailing block.
fn min_degree_order(adj: &[Vec<u32>]) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};
    let n = adj.len();
    let mut sets: Vec<BTreeSet<u32>> = adj.iter().map(|l| l.iter().copied().collect()).collect();
    let mut eliminated = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::with_capacity(2 * n);
    for (v, s) in sets.iter().enumerate() {
        heap.push(Reverse((s.len(), v)));
    }
    let mut order = Vec::with_capacity(n);
    while order.len() < n {
        let Some(Reverse((d, v))) = heap.pop() else {
            break;
        };
        if eliminated[v] || sets[v].len() != d {
            continue; // stale heap entry
        }
        eliminated[v] = true;
        order.push(v);
        let nbrs: Vec<u32> = std::mem::take(&mut sets[v]).into_iter().collect();
        for (i, &x) in nbrs.iter().enumerate() {
            let xs = x as usize;
            sets[xs].remove(&(v as u32));
            for &y in &nbrs[i + 1..] {
                sets[xs].insert(y);
                sets[y as usize].insert(x);
            }
        }
        // Re-key every touched neighbor.
        for &x in &nbrs {
            heap.push(Reverse((sets[x as usize].len(), x as usize)));
        }
    }
    order
}

/// Reverse Cuthill–McKee ordering on the symmetrized matched pattern.
/// Returns `sigma` with `sigma[k]` = original row at position `k`.
fn rcm_order(adj: &[Vec<u32>]) -> Vec<usize> {
    let n = adj.len();
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();

    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut frontier: Vec<u32> = Vec::new();
    while order.len() < n {
        // Component start: minimum-degree unplaced vertex, pushed toward
        // the graph periphery with two BFS sweeps.
        let mut start = (0..n)
            .filter(|&v| !placed[v])
            .min_by_key(|&v| degree[v])
            .expect("unplaced vertex exists");
        for _ in 0..2 {
            let far = bfs_last_level(adj, &placed, start, &degree);
            if far == start {
                break;
            }
            start = far;
        }
        // Cuthill–McKee BFS with degree-sorted neighbor visits.
        let before = order.len();
        placed[start] = true;
        order.push(start);
        let mut head = before;
        while head < order.len() {
            let v = order[head];
            head += 1;
            frontier.clear();
            for &w in &adj[v] {
                if !placed[w as usize] {
                    placed[w as usize] = true;
                    frontier.push(w);
                }
            }
            frontier.sort_unstable_by_key(|&w| (degree[w as usize], w));
            order.extend(frontier.iter().map(|&w| w as usize));
        }
    }
    order.reverse();
    order
}

/// Last-BFS-level minimum-degree vertex, used to approximate a
/// pseudo-peripheral starting node for RCM.
fn bfs_last_level(adj: &[Vec<u32>], placed: &[bool], start: usize, degree: &[usize]) -> usize {
    let mut seen = vec![false; adj.len()];
    seen[start] = true;
    let mut level = vec![start];
    let mut last = vec![start];
    while !level.is_empty() {
        let mut next = Vec::new();
        for &v in &level {
            for &w in &adj[v] {
                let w = w as usize;
                if !seen[w] && !placed[w] {
                    seen[w] = true;
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        last = next.clone();
        level = next;
    }
    last.into_iter()
        .min_by_key(|&v| (degree[v], v))
        .unwrap_or(start)
}

/// Numeric values of a sparse LU factorization over a [`SymbolicLu`]
/// pattern.
///
/// The numeric phase is deterministic and pivot-free, so
/// [`SparseLu::refactor`] after a value-only matrix update produces
/// values bit-identical to a fresh [`SparseLu::factor`].
#[derive(Debug, Clone)]
pub struct SparseLu {
    vals: Vec<f64>,
    work: Vec<f64>,
}

impl SparseLu {
    /// Factors `a` over the symbolic pattern.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularMatrix`] when a pivot falls below
    /// the dense backend's singularity threshold.
    pub fn factor(sym: &SymbolicLu, a: &CsrMatrix) -> Result<SparseLu> {
        let mut lu = SparseLu {
            vals: vec![0.0; sym.lu_nnz()],
            work: vec![0.0; sym.n],
        };
        lu.refactor(sym, a)?;
        Ok(lu)
    }

    /// Refactors after a value-only update of `a` (same pattern). The
    /// resulting factor values are bit-identical to a fresh
    /// [`SparseLu::factor`] of the same values.
    ///
    /// # Errors
    ///
    /// See [`SparseLu::factor`].
    pub fn refactor(&mut self, sym: &SymbolicLu, a: &CsrMatrix) -> Result<()> {
        let vals = &mut self.vals;
        vals.fill(0.0);
        for (e, &v) in a.vals.iter().enumerate() {
            vals[sym.a_to_lu[e]] += v;
        }
        // Row-wise Doolittle over the filled pattern with a dense scatter
        // workspace (zeroed outside the active row).
        let w = &mut self.work;
        for k in 0..sym.n {
            let (start, end) = (sym.lu_row_ptr[k], sym.lu_row_ptr[k + 1]);
            let dk = sym.diag[k];
            for s in start..end {
                w[sym.lu_cols[s] as usize] = vals[s];
            }
            for s in start..dk {
                let c = sym.lu_cols[s] as usize;
                let lkc = w[c] / vals[sym.diag[c]];
                w[c] = lkc;
                if lkc != 0.0 {
                    for us in sym.diag[c] + 1..sym.lu_row_ptr[c + 1] {
                        w[sym.lu_cols[us] as usize] -= lkc * vals[us];
                    }
                }
            }
            for (v, &cu) in vals[start..end].iter_mut().zip(&sym.lu_cols[start..end]) {
                let c = cu as usize;
                *v = w[c];
                w[c] = 0.0;
            }
            if vals[dk].abs() < PIVOT_MIN {
                return Err(CircuitError::SingularMatrix);
            }
        }
        Ok(())
    }

    /// The raw L+U factor values in pattern order — exposed so tests can
    /// assert refactorization bit-identity.
    pub fn values(&self) -> &[f64] {
        &self.vals
    }

    /// Solves `A·x = b` by permuted forward/backward substitution.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidParameter`] on a length mismatch.
    pub fn solve(&self, sym: &SymbolicLu, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != sym.n {
            return Err(CircuitError::InvalidParameter(format!(
                "sparse solve: expected rhs of length {}, got {}",
                sym.n,
                b.len()
            )));
        }
        let mut y: Vec<f64> = sym.row_perm.iter().map(|&i| b[i]).collect();
        for k in 0..sym.n {
            let mut s = y[k];
            for idx in sym.lu_row_ptr[k]..sym.diag[k] {
                s -= self.vals[idx] * y[sym.lu_cols[idx] as usize];
            }
            y[k] = s;
        }
        for k in (0..sym.n).rev() {
            let mut s = y[k];
            for idx in sym.diag[k] + 1..sym.lu_row_ptr[k + 1] {
                s -= self.vals[idx] * y[sym.lu_cols[idx] as usize];
            }
            y[k] = s / self.vals[sym.diag[k]];
        }
        let mut x = vec![0.0; sym.n];
        for (k, &j) in sym.col_perm.iter().enumerate() {
            x[j] = y[k];
        }
        Ok(x)
    }

    /// Solves with one step of iterative refinement against the original
    /// matrix, recovering the accuracy a partial-pivoting dense solve
    /// would give on MNA-conditioned systems.
    ///
    /// # Errors
    ///
    /// See [`SparseLu::solve`].
    pub fn solve_refined(&self, sym: &SymbolicLu, a: &CsrMatrix, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = self.solve(sym, b)?;
        let mut r = vec![0.0; sym.n];
        a.matvec(&x, &mut r);
        for (ri, bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        let dx = self.solve(sym, &r)?;
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcs_linalg::{Lu, Matrix};

    fn dense_of(t: &Triplets) -> Matrix {
        let mut m = Matrix::zeros(t.dim, t.dim);
        for k in 0..t.len() {
            m[(t.rows[k] as usize, t.cols[k] as usize)] += t.vals[k];
        }
        m
    }

    fn solve_both(t: &Triplets, b: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (csr, _) = CsrMatrix::from_triplets(t);
        let sym = SymbolicLu::analyze(&csr).unwrap();
        let lu = SparseLu::factor(&sym, &csr).unwrap();
        let xs = lu.solve_refined(&sym, &csr, b).unwrap();
        let xd = Lu::factor(&dense_of(t)).unwrap().solve(b).unwrap();
        (xs, xd)
    }

    #[test]
    fn hub_graph_ordering_beats_rcm() {
        // Grid plus a supply-rail hub adjacent to every grid node — the
        // shape MNA gives the TFT array. The hub puts the whole graph
        // within two hops, collapsing the BFS layers RCM orders by,
        // while minimum degree defers the hub to the very end. `analyze`
        // must pick the cheaper of the two.
        let g = 12usize;
        let n = 1 + g * g;
        let mut t = Triplets::new(n);
        let add_edge = |t: &mut Triplets, a: usize, b: usize| {
            t.push(a, b, -1.0);
            t.push(b, a, -1.0);
        };
        for r in 0..g {
            for c in 0..g {
                let v = 1 + r * g + c;
                add_edge(&mut t, 0, v);
                if c + 1 < g {
                    add_edge(&mut t, v, v + 1);
                }
                if r + 1 < g {
                    add_edge(&mut t, v, v + g);
                }
            }
        }
        for i in 0..n {
            t.push(i, i, 200.0);
        }
        let (csr, _) = CsrMatrix::from_triplets(&t);
        let sym = SymbolicLu::analyze(&csr).unwrap();
        let (_, match_row) = maximum_transversal(&csr).unwrap();
        let adj = matched_adjacency(&csr, &match_row);
        let rcm_fill = fill_pattern(&csr, &match_row, &rcm_order(&adj));
        let md_fill = fill_pattern(&csr, &match_row, &min_degree_order(&adj));
        assert!(
            md_fill.flops() < rcm_fill.flops(),
            "min degree {} vs rcm {} flops",
            md_fill.flops(),
            rcm_fill.flops()
        );
        assert_eq!(sym.factor_flops(), md_fill.flops().min(rcm_fill.flops()));
    }

    #[test]
    fn triplets_dedup_and_slots() {
        let mut t = Triplets::new(2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(0, 0, 3.0); // duplicate of the first
        t.push(1, 1, 5.0);
        let (csr, slots) = CsrMatrix::from_triplets(&t);
        assert_eq!(csr.nnz(), 3);
        assert_eq!(slots[0], slots[2]);
        let (cols, vals) = csr.row(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[4.0, 2.0]);
    }

    #[test]
    fn set_values_matches_rebuild() {
        let mut t = Triplets::new(3);
        t.push(2, 0, 1.0);
        t.push(0, 0, 2.0);
        t.push(2, 0, 0.5);
        t.push(1, 2, 4.0);
        t.push(1, 1, 1.0);
        t.push(0, 2, -1.0);
        t.push(2, 2, 3.0);
        let (mut csr, slots) = CsrMatrix::from_triplets(&t);
        // Re-stamp with new values in the same order.
        let new_vals = [10.0, 20.0, 5.0, 40.0, 10.0, -10.0, 30.0];
        csr.set_values(&slots, &new_vals);
        let mut t2 = Triplets::new(3);
        for (k, &v) in new_vals.iter().enumerate() {
            t2.push(t.rows[k] as usize, t.cols[k] as usize, v);
        }
        let (csr2, _) = CsrMatrix::from_triplets(&t2);
        assert_eq!(csr.vals, csr2.vals);
        assert_eq!(csr.cols, csr2.cols);
    }

    #[test]
    fn matvec_small() {
        let mut t = Triplets::new(2);
        t.push(0, 0, 2.0);
        t.push(0, 1, 1.0);
        t.push(1, 0, -1.0);
        t.push(1, 1, 3.0);
        let (csr, _) = CsrMatrix::from_triplets(&t);
        let mut y = vec![0.0; 2];
        csr.matvec(&[1.0, 2.0], &mut y);
        assert_eq!(y, vec![4.0, 5.0]);
    }

    #[test]
    fn solve_matches_dense_on_tridiagonal() {
        let n = 20;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.push(i, i, 4.0 + i as f64 * 0.1);
            if i > 0 {
                t.push(i, i - 1, -1.0);
                t.push(i - 1, i, -1.5);
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let (xs, xd) = solve_both(&t, &b);
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-12, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn zero_diagonal_pivots_structurally() {
        // MNA voltage-source shape: [[0, 1], [1, gmin]] has a zero
        // diagonal but is structurally (and numerically) fine.
        let mut t = Triplets::new(3);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 1e-12);
        t.push(2, 2, 2.0);
        t.push(0, 2, 0.5);
        let b = [1.0, 2.0, 4.0];
        let (xs, xd) = solve_both(&t, &b);
        for (s, d) in xs.iter().zip(&xd) {
            assert!((s - d).abs() < 1e-12, "sparse {s} vs dense {d}");
        }
    }

    #[test]
    fn structurally_singular_detected() {
        let mut t = Triplets::new(3);
        // Row 1 is empty; no perfect matching exists.
        t.push(0, 0, 1.0);
        t.push(2, 2, 1.0);
        t.push(0, 2, 1.0);
        let (csr, _) = CsrMatrix::from_triplets(&t);
        assert!(matches!(
            SymbolicLu::analyze(&csr),
            Err(CircuitError::SingularMatrix)
        ));
    }

    #[test]
    fn numerically_singular_detected() {
        // Structurally fine but rank-deficient: two identical rows.
        let mut t = Triplets::new(2);
        t.push(0, 0, 1.0);
        t.push(0, 1, 2.0);
        t.push(1, 0, 1.0);
        t.push(1, 1, 2.0);
        let (csr, _) = CsrMatrix::from_triplets(&t);
        let sym = SymbolicLu::analyze(&csr).unwrap();
        assert!(matches!(
            SparseLu::factor(&sym, &csr),
            Err(CircuitError::SingularMatrix)
        ));
    }

    #[test]
    fn refactor_is_bit_identical_to_scratch() {
        let n = 12;
        let mut t = Triplets::new(n);
        for i in 0..n {
            t.push(i, i, 3.0);
            t.push(i, (i + 3) % n, -0.25);
            t.push((i + 5) % n, i, 0.125);
        }
        let (mut csr, slots) = CsrMatrix::from_triplets(&t);
        let sym = SymbolicLu::analyze(&csr).unwrap();
        let mut lu = SparseLu::factor(&sym, &csr).unwrap();
        // Value-only update, then refactor in place.
        let new_vals: Vec<f64> = (0..t.len())
            .map(|k| 1.0 + (k as f64 * 0.61).cos())
            .collect();
        let shifted: Vec<f64> = new_vals.iter().map(|v| v + 3.0 * v.signum()).collect();
        csr.set_values(&slots, &shifted);
        lu.refactor(&sym, &csr).unwrap();
        let scratch = SparseLu::factor(&sym, &csr).unwrap();
        assert_eq!(lu.values(), scratch.values());
    }
}
