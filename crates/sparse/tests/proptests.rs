//! Property-based tests for the sparse-matrix substrate: factorization
//! correctness against a dense reference, format round-trips, and
//! permutation algebra — over randomized inputs.

#![allow(clippy::needless_range_loop)] // the dense reference reads best with indices

use proptest::prelude::*;
use sass_sparse::ordering::OrderingKind;
use sass_sparse::{CooMatrix, CsrMatrix, LdlFactor, Permutation};

/// Strategy: a random sparse SPD matrix (diagonally dominant) of size
/// `n in [2, 24]` with `k` random symmetric off-diagonal entries.
fn spd_matrix() -> impl Strategy<Value = CsrMatrix> {
    (2usize..24).prop_flat_map(|n| {
        let entries = proptest::collection::vec((0usize..n, 0usize..n, -1.0f64..1.0), 0..(3 * n));
        (Just(n), entries).prop_map(|(n, entries)| {
            let mut coo = CooMatrix::new(n, n);
            let mut row_abs = vec![0.0f64; n];
            for &(i, j, v) in &entries {
                if i != j {
                    coo.push_sym(i.min(j), i.max(j), v);
                    row_abs[i] += v.abs();
                    row_abs[j] += v.abs();
                }
            }
            // Strict diagonal dominance makes it SPD.
            for (i, &ra) in row_abs.iter().enumerate() {
                coo.push(i, i, ra + 1.0);
            }
            coo.to_csr()
        })
    })
}

/// Dense Gaussian elimination with partial pivoting (test reference).
fn dense_solve(a: &CsrMatrix, b: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut m = a.to_dense();
    let mut x = b.to_vec();
    for col in 0..n {
        let piv = (col..n)
            .max_by(|&i, &j| m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap())
            .unwrap();
        m.swap(col, piv);
        x.swap(col, piv);
        for row in (col + 1)..n {
            let f = m[row][col] / m[col][col];
            for k in col..n {
                m[row][k] -= f * m[col][k];
            }
            x[row] -= f * x[col];
        }
    }
    for col in (0..n).rev() {
        x[col] /= m[col][col];
        for row in 0..col {
            x[row] -= m[row][col] * x[col];
        }
    }
    x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ldl_matches_dense_reference(a in spd_matrix(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let reference = dense_solve(&a, &b);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinDegree,
            OrderingKind::NestedDissection,
        ] {
            let f = LdlFactor::new(&a, kind).unwrap();
            let x = f.solve(&b);
            for (xi, ri) in x.iter().zip(&reference) {
                prop_assert!((xi - ri).abs() < 1e-7 * ri.abs().max(1.0),
                             "{kind:?}: {xi} vs {ri}");
            }
        }
    }

    #[test]
    fn ldl_diagonal_positive_for_spd(a in spd_matrix()) {
        let f = LdlFactor::new(&a, OrderingKind::MinDegree).unwrap();
        prop_assert!(f.d().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn coo_csr_round_trip(a in spd_matrix()) {
        // Size introspection counts at least one value and one index per
        // stored entry.
        prop_assert!(a.memory_bytes() >= a.nnz() * 12);
        let back = a.to_coo().to_csr();
        prop_assert_eq!(a, back);
    }

    #[test]
    fn transpose_is_involution(a in spd_matrix()) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        prop_assert!(a.is_symmetric(1e-12));
    }

    #[test]
    fn spmv_matches_dense(a in spd_matrix(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let y = a.mul_vec(&x);
        let dense = a.to_dense();
        for i in 0..n {
            let want: f64 = (0..n).map(|j| dense[i][j] * x[j]).sum();
            prop_assert!((y[i] - want).abs() < 1e-10 * want.abs().max(1.0));
        }
    }

    #[test]
    fn symmetric_permutation_preserves_spectrum_proxy(
        a in spd_matrix(), seed in 0u64..1000
    ) {
        // P A P^T has the same quadratic form under the permuted vector.
        use rand::{Rng, SeedableRng};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Random permutation via sorting random keys.
        let mut order: Vec<usize> = (0..n).collect();
        let keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        order.sort_by_key(|&i| keys[i]);
        let perm = Permutation::from_old_of_new(order).unwrap();
        let b = a.permute_sym(&perm).unwrap();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let px = perm.apply(&x);
        prop_assert!((a.quad_form(&x) - b.quad_form(&px)).abs()
                     < 1e-9 * a.quad_form(&x).abs().max(1.0));
    }

    #[test]
    fn permutation_inverse_composes_to_identity(n in 1usize..64, seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..n).collect();
        let keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        order.sort_by_key(|&i| keys[i]);
        let p = Permutation::from_new_of_old(order).unwrap();
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        prop_assert_eq!(p.apply_inverse(&p.apply(&x)), x.clone());
        let double_inverse = p.inverse().inverse();
        prop_assert_eq!(double_inverse.new_of_old(), p.new_of_old());
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_spmv_is_bit_for_bit_serial(a in spd_matrix(), seed in 0u64..1000) {
        // The threaded fast path must be *exactly* the serial kernel's
        // result — same per-row accumulation order — on any input, not
        // merely close. (Matrices this size take the serial fallback; the
        // unit tests in `parallel.rs` pin the same property above the
        // crossover.)
        use rand::{Rng, SeedableRng};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let mut serial = vec![0.0; n];
        let mut parallel = vec![0.0; n];
        a.mul_vec_into(&x, &mut serial);
        a.par_mul_vec_into(&x, &mut parallel);
        prop_assert_eq!(&serial, &parallel);
        // And the LinearOperator route resolves to the same bits.
        use sass_sparse::LinearOperator;
        prop_assert_eq!(a.apply_vec(&x), serial);
    }

    /// Pool-based SpMV must be bit-identical to the serial kernel at every
    /// worker count. `pool::set_threads` is a standing override that skips
    /// the size crossover, so even these small matrices go through real
    /// multi-lane dispatch on the persistent pool.
    #[cfg(feature = "parallel")]
    #[test]
    fn pool_spmv_bit_identical_across_worker_counts(a in spd_matrix(), seed in 0u64..500) {
        use rand::{Rng, SeedableRng};
        use sass_sparse::pool;
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let mut serial = vec![0.0; n];
        a.mul_vec_into(&x, &mut serial);
        for workers in [1usize, 2, 3, 8] {
            pool::set_threads(workers);
            let mut parallel = vec![0.0; n];
            a.par_mul_vec_into(&x, &mut parallel);
            pool::set_threads(0);
            prop_assert_eq!(&parallel, &serial, "workers = {}", workers);
        }
    }

    /// The blocked multi-RHS solve must agree with the per-column solve on
    /// any SPD input, across full and partial block widths — the LDL
    /// counterpart of the serial/parallel SpMV equivalence above.
    #[test]
    fn ldl_block_solve_matches_per_column(a in spd_matrix(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        use sass_sparse::{DenseBlock, LdlFactor, LDL_BLOCK_WIDTH};
        let n = a.nrows();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let f = LdlFactor::new(&a, OrderingKind::MinDegree).unwrap();
        for ncols in [1usize, LDL_BLOCK_WIDTH - 1, LDL_BLOCK_WIDTH, LDL_BLOCK_WIDTH + 3] {
            let cols: Vec<Vec<f64>> = (0..ncols)
                .map(|_| (0..n).map(|_| rng.gen_range(-5.0f64..5.0)).collect())
                .collect();
            let blocked = f.solve_block(&DenseBlock::from_columns(&cols));
            for (c, col) in cols.iter().enumerate() {
                let single = f.solve(col);
                for (bx, sx) in blocked.col(c).iter().zip(&single) {
                    prop_assert!(
                        (bx - sx).abs() <= 1e-14 * sx.abs().max(1.0),
                        "ncols={} col={}: {} vs {}", ncols, c, bx, sx
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_market_round_trip(a in spd_matrix()) {
        let text = sass_sparse::mmio::write_string(&a).unwrap();
        let back = sass_sparse::mmio::read_str(&text).unwrap().to_csr();
        prop_assert_eq!(a, back);
    }
}

/// Strategy: a square matrix with a random *symmetric pattern* (values
/// independent per triangle) of size `n in [1, 40)`, where roughly a
/// third of the rows are left empty (no diagonal, no neighbours), plus a
/// random permutation of its indices.
fn sym_pattern_and_perm() -> impl Strategy<Value = (CsrMatrix, Permutation)> {
    (1usize..40, 0u64..1_000_000).prop_map(|(n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let live: Vec<bool> = (0..n).map(|_| rng.gen_range(0..3) != 0).collect();
        let mut coo = CooMatrix::new(n, n);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..(2 * n) {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if live[i] && live[j] && seen.insert((i.min(j), i.max(j))) {
                coo.push(i, j, rng.gen_range(-2.0..2.0));
                if i != j {
                    coo.push(j, i, rng.gen_range(-2.0..2.0));
                }
            }
        }
        let mut order: Vec<usize> = (0..n).collect();
        let keys: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        order.sort_by_key(|&i| keys[i]);
        (coo.to_csr(), Permutation::from_old_of_new(order).unwrap())
    })
}

/// Strategy: a rectangular CSR matrix with ragged rows (`0..=6` entries,
/// so empty rows are common) and a right-hand block width in `1..=33`.
fn ragged_matrix_and_width() -> impl Strategy<Value = (CsrMatrix, usize, u64)> {
    (1usize..48, 1usize..48, 1usize..=33, 0u64..1_000_000).prop_map(|(nr, nc, k, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(nr, nc);
        for i in 0..nr {
            let mut cols: Vec<usize> = (0..rng.gen_range(0..=6))
                .map(|_| rng.gen_range(0..nc))
                .collect();
            cols.sort_unstable();
            cols.dedup();
            for j in cols {
                coo.push(i, j, rng.gen_range(-3.0..3.0));
            }
        }
        (coo.to_csr(), k, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The direct O(nnz) symmetric permutation must reproduce the
    /// triplet (COO) construction it replaced, bit for bit — pattern,
    /// row order and values — including on empty rows.
    #[test]
    fn permute_sym_matches_coo_reference((a, perm) in sym_pattern_and_perm()) {
        let p = perm.new_of_old();
        let mut coo = CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz());
        for i in 0..a.nrows() {
            let (cols, vals) = a.row(i);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(p[i], p[*c as usize], *v);
            }
        }
        let want = coo.to_csr();
        let got = a.permute_sym(&perm).unwrap();
        prop_assert_eq!(got.indptr(), want.indptr());
        prop_assert_eq!(got.indices(), want.indices());
        let bits = |m: &CsrMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The row-major SpMM must give every column exactly the bits of a
    /// per-column `mul_vec_into`, at every forced pool width (the override
    /// skips the size crossover, so even these small products fan out).
    #[test]
    fn spmm_bit_identical_to_column_loop((a, k, seed) in ragged_matrix_and_width()) {
        use rand::{Rng, SeedableRng};
        use sass_sparse::pool;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        let x: Vec<f64> = (0..a.ncols() * k).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let mut want = vec![0.0; a.nrows() * k];
        for c in 0..k {
            let xc: Vec<f64> = (0..a.ncols()).map(|j| x[j * k + c]).collect();
            let mut yc = vec![f64::NAN; a.nrows()];
            a.mul_vec_into(&xc, &mut yc);
            for (i, v) in yc.into_iter().enumerate() {
                want[i * k + c] = v;
            }
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for workers in [1usize, 2, 3, 8] {
            pool::set_threads(workers);
            let mut got = vec![f64::NAN; a.nrows() * k];
            a.mul_block_into(&x, &mut got, k);
            pool::set_threads(0);
            prop_assert_eq!(bits(&got), bits(&want), "workers = {}", workers);
        }
    }
}

/// Strategy: a shifted Laplacian (SPD) of a hub-heavy random graph,
/// `n in [30, 500)`: preferential attachment with one to three edges per
/// new node, plus, on even seeds, one extra hub tied to 60% of the nodes —
/// above the approximate-minimum-degree dense-row threshold
/// `max(16, 10·√n)` for `n` above about 280.
fn hub_matrix() -> impl Strategy<Value = CsrMatrix> {
    (30usize..500, 0u64..1_000_000).prop_map(|(n, seed)| {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ends: Vec<usize> = vec![0, 1];
        let mut edges = vec![(0usize, 1usize)];
        for v in 2..n {
            for _ in 0..rng.gen_range(1..4usize) {
                let u = ends[rng.gen_range(0..ends.len())];
                if u != v && !edges.contains(&(u.min(v), u.max(v))) {
                    edges.push((u.min(v), u.max(v)));
                    ends.extend([u, v]);
                }
            }
        }
        if seed % 2 == 0 {
            let hub = rng.gen_range(0..n);
            for v in (0..n).filter(|&v| v != hub && v % 5 < 3) {
                if !edges.contains(&(hub.min(v), hub.max(v))) {
                    edges.push((hub.min(v), hub.max(v)));
                }
            }
        }
        let mut coo = CooMatrix::new(n, n);
        let mut deg = vec![0.0f64; n];
        for &(u, v) in &edges {
            coo.push_sym(u, v, -1.0);
            deg[u] += 1.0;
            deg[v] += 1.0;
        }
        for (i, d) in deg.iter().enumerate() {
            coo.push(i, i, d + 0.5);
        }
        coo.to_csr()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The approximate-minimum-degree ordering on hub-heavy patterns —
    /// where aggressive absorption, supervariables and dense-row deferral
    /// all trigger — is deterministic and yields an accurate factor.
    #[test]
    fn min_degree_on_hub_graphs_is_deterministic_and_exact(a in hub_matrix(), seed in 0u64..1000) {
        use rand::{Rng, SeedableRng};
        use sass_sparse::ordering;
        let n = a.nrows();
        let perm = ordering::compute(&a, OrderingKind::MinDegree).unwrap();
        prop_assert_eq!(&perm, &ordering::compute(&a, OrderingKind::MinDegree).unwrap());
        let f = LdlFactor::with_permutation(&a, perm).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let x = f.solve(&b);
        let r = a.residual_norm(&x, &b);
        prop_assert!(r < 1e-10, "relative residual {}", r);
    }
}
