//! Dense vector kernels shared by every iterative method in the workspace.
//!
//! These are deliberately plain, allocation-free slice operations; all the
//! iterative solvers and eigensolvers are built on top of them so that the
//! numerical conventions (in particular mean-centering against the Laplacian
//! nullspace) live in exactly one place.

/// Dot product `xᵀ y`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// `y ← y + alpha · x`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `x ← alpha · x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Copies `src` into `dst`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// Arithmetic mean of `x` (0.0 for an empty slice).
#[inline]
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Subtracts the mean from `x`, making it orthogonal to the all-ones vector.
///
/// This is how every Laplacian-adjacent iteration in the workspace stays in
/// the range of the (singular) graph Laplacian.
#[inline]
pub fn center(x: &mut [f64]) {
    let m = mean(x);
    for xi in x.iter_mut() {
        *xi -= m;
    }
}

/// Normalizes `x` to unit Euclidean norm, returning the prior norm.
///
/// Leaves `x` untouched (and returns 0.0) if its norm is zero.
#[inline]
pub fn normalize(x: &mut [f64]) -> f64 {
    let n = norm2(x);
    if n > 0.0 {
        scale(1.0 / n, x);
    }
    n
}

/// Per-column sums of `f(x)` over a row-major block of `ncols` columns,
/// each column added in row order from `Iterator::sum`'s identity (`-0.0`),
/// so a column's sum has the bits `Iterator::sum` gives on that column.
fn column_sums(x: &[f64], ncols: usize, f: impl Fn(f64) -> f64) -> Vec<f64> {
    assert!(
        ncols > 0 && x.len().is_multiple_of(ncols),
        "column pass: ragged row-major block"
    );
    let mut acc = vec![-0.0; ncols];
    for row in x.chunks_exact(ncols) {
        for (a, &v) in acc.iter_mut().zip(row) {
            *a += f(v);
        }
    }
    acc
}

/// Per-column [`mean`] of a row-major block: `x[i·ncols + c]` is row `i`
/// of column `c`. Bit-identical to [`mean`] on each column.
///
/// # Panics
///
/// Panics if `ncols == 0` or `x.len()` is not a multiple of `ncols`.
pub fn column_means(x: &[f64], ncols: usize) -> Vec<f64> {
    let mut sums = column_sums(x, ncols, |v| v);
    let nrows = x.len() / ncols;
    if nrows == 0 {
        return vec![0.0; ncols];
    }
    for s in &mut sums {
        *s /= nrows as f64;
    }
    sums
}

/// [`center`] applied to every column of a row-major block of `ncols`
/// columns, bit-identical to centering each column on its own.
///
/// # Panics
///
/// Panics if `ncols == 0` or `x.len()` is not a multiple of `ncols`.
pub fn center_columns(x: &mut [f64], ncols: usize) {
    let means = column_means(x, ncols);
    for row in x.chunks_exact_mut(ncols) {
        for (v, m) in row.iter_mut().zip(&means) {
            *v -= m;
        }
    }
}

/// [`normalize`] applied to every column of a row-major block of `ncols`
/// columns, bit-identical to normalizing each column on its own (a zero
/// column is left untouched).
///
/// # Panics
///
/// Panics if `ncols == 0` or `x.len()` is not a multiple of `ncols`.
pub fn normalize_columns(x: &mut [f64], ncols: usize) {
    let scales: Vec<f64> = column_sums(x, ncols, |v| v * v)
        .into_iter()
        .map(|ss| {
            let n = ss.sqrt();
            if n > 0.0 {
                1.0 / n
            } else {
                1.0
            }
        })
        .collect();
    for row in x.chunks_exact_mut(ncols) {
        for (v, s) in row.iter_mut().zip(&scales) {
            *v *= s;
        }
    }
}

/// Makes `x` orthogonal to the (not necessarily normalized) vector `q`.
///
/// Computes `x ← x − ((qᵀx)/(qᵀq)) q`. No-op when `q` is zero.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn orthogonalize_against(x: &mut [f64], q: &[f64]) {
    let qq = dot(q, q);
    if qq > 0.0 {
        let c = dot(q, x) / qq;
        axpy(-c, q, x);
    }
}

/// Relative difference `‖x − y‖₂ / max(‖y‖₂, ε)`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn rel_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "rel_diff: length mismatch");
    let mut num = 0.0;
    for (a, b) in x.iter().zip(y) {
        num += (a - b) * (a - b);
    }
    let den = norm2(y).max(f64::EPSILON);
    num.sqrt() / den
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        let x = [3.0, 4.0];
        assert_eq!(dot(&x, &x), 25.0);
        assert_eq!(norm2(&x), 5.0);
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    /// Interleaves `cols` into one row-major block.
    fn interleave(cols: &[Vec<f64>]) -> Vec<f64> {
        let n = cols[0].len();
        (0..n * cols.len())
            .map(|q| cols[q % cols.len()][q / cols.len()])
            .collect()
    }

    #[test]
    fn column_passes_match_per_column_bitwise() {
        // A live column, an all-(−0.0) column (the sign of its mean is
        // `Iterator::sum`'s identity) and an all-zero column (normalize
        // must leave it alone).
        let cols = vec![
            (0..7)
                .map(|i| (i as f64 * 0.9).sin() * 3.0 + 0.1)
                .collect::<Vec<_>>(),
            vec![-0.0; 7],
            vec![0.0; 7],
        ];
        let mut block = interleave(&cols);
        let means = column_means(&block, 3);
        let want: Vec<f64> = cols.iter().map(|c| mean(c)).collect();
        assert_eq!(
            means.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            want.iter().map(|m| m.to_bits()).collect::<Vec<_>>()
        );
        center_columns(&mut block, 3);
        normalize_columns(&mut block, 3);
        let mut want = cols.clone();
        for c in &mut want {
            center(c);
            normalize(c);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&block), bits(&interleave(&want)));
        assert_eq!(column_means(&[], 2), vec![0.0, 0.0]);
    }

    #[test]
    fn axpy_scale_copy() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        scale(0.5, &mut y);
        assert_eq!(y, [6.0, 12.0]);
        let mut z = [0.0, 0.0];
        copy(&y, &mut z);
        assert_eq!(z, y);
    }

    #[test]
    fn center_removes_mean() {
        let mut x = [1.0, 2.0, 3.0, 6.0];
        center(&mut x);
        assert!(mean(&x).abs() < 1e-15);
    }

    #[test]
    fn center_empty_is_noop() {
        let mut x: [f64; 0] = [];
        center(&mut x);
        assert_eq!(mean(&x), 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut x = [3.0, 4.0];
        let prior = normalize(&mut x);
        assert_eq!(prior, 5.0);
        assert!((norm2(&x) - 1.0).abs() < 1e-15);
        let mut z = [0.0, 0.0];
        assert_eq!(normalize(&mut z), 0.0);
    }

    #[test]
    fn orthogonalize_makes_perpendicular() {
        let q = [1.0, 1.0, 1.0];
        let mut x = [1.0, 2.0, 3.0];
        orthogonalize_against(&mut x, &q);
        assert!(dot(&x, &q).abs() < 1e-12);
    }

    #[test]
    fn rel_diff_zero_for_equal() {
        let x = [1.0, -2.0, 0.5];
        assert_eq!(rel_diff(&x, &x), 0.0);
        assert!(rel_diff(&[1.0], &[2.0]) > 0.0);
    }
}
