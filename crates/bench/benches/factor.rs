//! Level-scheduled LDLᵀ: numeric factorization and triangular-solve
//! latency, serial vs forced pool widths.
//!
//! Three workload shapes, chosen for their elimination-tree profiles:
//!
//! - `mesh`: a 2-D grid Laplacian under approximate minimum degree —
//!   bushy etree, wide levels, the case level scheduling is built for;
//! - `scale_free`: a Barabási–Albert graph — skewed degrees, skewed level
//!   widths (stresses the weighted span balancing);
//! - `sparsifier`: the near-tree output of the paper's own pipeline
//!   (σ² = 200 on a circuit grid) — deep, narrow etree with almost no
//!   level parallelism, the case the nnz/level-width crossover keeps on
//!   the flat serial sweeps under automatic sizing.
//!
//! Three kernels per workload — `numeric` ([`LdlFactor::with_permutation`]
//! with a precomputed ordering), `solve` (single RHS,
//! [`LdlFactor::solve_into_scratch`]) and `solve_block8` (one full
//! 8-column chunk) — each at `serial` (`set_threads(1)`), `w2` and `w4`
//! forced pool widths, and each once per SIMD dispatch mode (the
//! detected tier and forced `scalar`, suffixed onto the width label —
//! the 8-wide interleaved sweeps are the rows the `kernel` module's LDLᵀ
//! microkernels target). The forced rows engage the level-parallel path
//! regardless of the crossovers; on a single-core host they measure pure
//! dispatch overhead (the speedup needs real cores).
//!
//! One `ordering/<workload>` row per workload times the fill-reducing
//! ordering itself ([`ordering::compute`] with `MinDegree`, the AMD
//! ordering every factorization runs first), and a summary record puts it
//! against the serial numeric factorization. On `mesh_56x56` and
//! `scale_free_3000` the bench **asserts** that the ordering takes no
//! longer than the serial numeric factorization — a machine-independent
//! ratio, so it gates CI on any host. Record the baseline with
//!
//! ```text
//! CRITERION_JSON=BENCH_FACTOR.json cargo bench -p sass-bench --bench factor
//! ```

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use sass_bench::{record_simd_provenance, simd_modes};
use sass_core::{sparsify, SparsifyConfig};
use sass_graph::generators::{barabasi_albert, circuit_grid, grid2d, WeightModel};
use sass_sparse::ordering::{self, OrderingKind};
use sass_sparse::{kernel, pool, CsrMatrix, DenseBlock, LdlFactor, LDL_BLOCK_WIDTH};

/// Grounded (SPD) principal submatrix of a Laplacian, vertex 0 deleted.
fn grounded(l: &CsrMatrix) -> CsrMatrix {
    let mut keep = vec![true; l.nrows()];
    keep[0] = false;
    l.principal_submatrix(&keep).0
}

fn workloads() -> Vec<(String, CsrMatrix)> {
    let mesh = grid2d(56, 56, WeightModel::Uniform { lo: 0.5, hi: 2.0 }, 7);
    let sf = barabasi_albert(3000, 3, 11);
    let g = circuit_grid(48, 48, 0.1, 9);
    let sp = sparsify(&g, &SparsifyConfig::new(200.0).with_seed(1)).expect("sparsify");
    vec![
        ("mesh_56x56".to_string(), grounded(&mesh.laplacian())),
        ("scale_free_3000".to_string(), grounded(&sf.laplacian())),
        (
            "sparsifier_48x48".to_string(),
            grounded(&sp.graph().laplacian()),
        ),
    ]
}

/// Workloads whose ordering must not take longer than their serial
/// numeric factorization.
const ORDERING_GATED: [&str; 2] = ["mesh_56x56", "scale_free_3000"];

/// Wall-clock nanoseconds of one call of `f`.
fn time_ns<T>(f: impl FnOnce() -> T) -> u128 {
    let t0 = std::time::Instant::now();
    black_box(f());
    t0.elapsed().as_nanos()
}

/// Median of a sample set.
fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    v[v.len() / 2]
}

fn bench_factor(c: &mut Criterion) {
    record_simd_provenance("factor");
    let mut group = c.benchmark_group("factor");
    group.sample_size(10);
    for (name, a) in workloads() {
        // Precompute the ordering so the numeric rows measure the
        // symbolic + numeric phases, not the ordering (it has its own row).
        let perm = ordering::compute(&a, OrderingKind::MinDegree).unwrap();
        let f = LdlFactor::with_permutation(&a, perm.clone()).unwrap();
        let n = a.nrows();
        eprintln!(
            "[{name}] n = {n}, nnz(L) = {}, levels = {}, max width = {}",
            f.nnz_l(),
            f.level_count(),
            f.max_level_width()
        );
        group.bench_with_input(BenchmarkId::new("ordering", &name), &(), |bch, ()| {
            bch.iter(|| black_box(ordering::compute(&a, OrderingKind::MinDegree).unwrap()))
        });

        // Ordering vs serial numeric factorization, sampled alternately so
        // both medians see the same machine conditions.
        pool::set_threads(1);
        let (mut order_ns, mut numeric_ns) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            order_ns.push(time_ns(|| {
                ordering::compute(&a, OrderingKind::MinDegree).unwrap()
            }));
            numeric_ns.push(time_ns(|| {
                LdlFactor::with_permutation(&a, perm.clone()).unwrap()
            }));
        }
        pool::set_threads(0);
        let (order_ns, numeric_ns) = (median(order_ns), median(numeric_ns).max(1));
        let ratio = order_ns as f64 / numeric_ns as f64;
        eprintln!(
            "[{name}] ordering {order_ns} ns vs serial numeric {numeric_ns} ns \
             (ratio {ratio:.2}), nnz(L) = {}",
            f.nnz_l()
        );
        sass_bench::append_json_record(&format!(
            "{{\"id\":\"factor/ordering_ratio/{name}\",\"ordering_ns\":{order_ns},\
             \"numeric_serial_ns\":{numeric_ns},\"ratio\":{ratio:.3},\"nnz_l\":{}}}",
            f.nnz_l()
        ));
        if ORDERING_GATED.contains(&name.as_str()) {
            assert!(
                ratio <= 1.0,
                "[{name}] ordering takes {ratio:.2}x the serial numeric factorization (bound 1.0)"
            );
        }
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 1) as f64 * 0.23).sin()).collect();
        let cols: Vec<Vec<f64>> = (0..LDL_BLOCK_WIDTH)
            .map(|k| {
                (0..n)
                    .map(|i| ((i * (k + 2)) as f64 * 0.13).cos())
                    .collect()
            })
            .collect();
        let rhs = DenseBlock::from_columns(&cols);
        let mut x = vec![0.0; n];
        let mut xb = DenseBlock::zeros(n, LDL_BLOCK_WIDTH);
        let mut work = Vec::new();
        for (mode, level) in simd_modes() {
            kernel::set_level(level);
            for (width_label, width) in [("serial", 1usize), ("w2", 2), ("w4", 4)] {
                let label = format!("{width_label}_{mode}");
                pool::set_threads(width);
                group.bench_with_input(
                    BenchmarkId::new(format!("numeric/{label}"), &name),
                    &(),
                    |bch, ()| {
                        bch.iter(|| {
                            black_box(
                                LdlFactor::with_permutation(&a, perm.clone())
                                    .unwrap()
                                    .nnz_l(),
                            )
                        })
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("solve/{label}"), &name),
                    &(),
                    |bch, ()| {
                        bch.iter(|| {
                            f.solve_into_scratch(&b, &mut x, &mut work);
                            black_box(x[0])
                        })
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("solve_block8/{label}"), &name),
                    &(),
                    |bch, ()| {
                        bch.iter(|| {
                            f.solve_block_into_scratch(&rhs, &mut xb, &mut work);
                            black_box(xb.col(0)[0])
                        })
                    },
                );
                pool::set_threads(0);
            }
        }
        kernel::set_level(None);
    }
    group.finish();
}

criterion_group!(benches, bench_factor);
criterion_main!(benches);
