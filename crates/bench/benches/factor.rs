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
//!   level parallelism: no level reaches the per-level dispatch gate, so
//!   automatic sizing keeps the flat serial sweeps;
//! - `sparsifier_100x100`: the same pipeline on `circuit_grid(100, 100,
//!   0.1)` at σ² = 100 — the shape of the end-to-end benchmark's
//!   `circuit` workload: 10k columns in 150–180 levels, every one of them
//!   lighter than the dispatch gate.
//!
//! Three kernels per workload — `numeric` ([`LdlFactor::with_permutation`]
//! with a precomputed ordering), `solve` (single RHS,
//! [`LdlFactor::solve_into_scratch`]) and `solve_block8` (one full
//! 8-column chunk) — each at `serial` (`set_threads(1)`), `auto`
//! (automatic pool sizing, the configuration the library ships with),
//! `w2` and `w4` forced pool widths, and each once per SIMD dispatch mode
//! (the detected tier and forced `scalar`, suffixed onto the width label
//! — the 8-wide interleaved sweeps are the rows the `kernel` module's
//! LDLᵀ microkernels target). The forced rows engage the level-parallel
//! path on every level regardless of the crossovers; on a single-core
//! host they measure pure dispatch overhead (the speedup needs real
//! cores).
//!
//! One `auto_vs_serial/<workload>` record per workload times `numeric`
//! and `solve_block8` in 41 alternating serial/auto pairs and records the
//! median and quartiles of the per-pair auto/serial ratios (the quartiles
//! tell a real loss from a noisy host). Automatic sizing must never lose
//! much to one lane: the per-level dispatch gate keeps light levels
//! inline, so on `sparsifier_100x100` the bench **asserts** a median
//! ratio ≤ 1.15 for both kernels.
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
    let g100 = circuit_grid(100, 100, 0.1, 101);
    let sp100 = sparsify(&g100, &SparsifyConfig::new(100.0)).expect("sparsify");
    vec![
        ("mesh_56x56".to_string(), grounded(&mesh.laplacian())),
        ("scale_free_3000".to_string(), grounded(&sf.laplacian())),
        (
            "sparsifier_48x48".to_string(),
            grounded(&sp.graph().laplacian()),
        ),
        (
            "sparsifier_100x100".to_string(),
            grounded(&sp100.graph().laplacian()),
        ),
    ]
}

/// Workloads whose ordering must not take longer than their serial
/// numeric factorization.
const ORDERING_GATED: [&str; 2] = ["mesh_56x56", "scale_free_3000"];

/// Workloads where automatic pool sizing must stay within
/// [`AUTO_VS_SERIAL_BOUND`] of one lane.
const AUTO_GATED: [&str; 1] = ["sparsifier_100x100"];

/// Largest allowed median of the per-pair auto/serial ratios on
/// [`AUTO_GATED`] workloads.
const AUTO_VS_SERIAL_BOUND: f64 = 1.15;

/// Alternating serial/auto pairs behind each `auto_vs_serial` record.
const AUTO_PAIRS: usize = 41;

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

/// First quartile, median and third quartile of a ratio sample.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let at = |q: usize| v[(v.len() - 1) * q / 4];
    [at(1), at(2), at(3)]
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

        // Automatic sizing vs one lane: alternating pairs, one auto/serial
        // ratio per pair, so a load spike hits both halves of a pair rather
        // than one median (detected SIMD tier). `set_threads(0)` restores
        // the configured default.
        let (mut num_r, mut blk_r) = (Vec::new(), Vec::new());
        for _ in 0..AUTO_PAIRS {
            let (mut num, mut blk) = ([0u128; 2], [0u128; 2]);
            for (slot, threads) in [(0, 1usize), (1, 0)] {
                pool::set_threads(threads);
                num[slot] = time_ns(|| LdlFactor::with_permutation(&a, perm.clone()).unwrap());
                blk[slot] = time_ns(|| {
                    f.solve_block_into_scratch(&rhs, &mut xb, &mut work);
                    xb.col(0)[0]
                });
            }
            num_r.push(num[1] as f64 / num[0].max(1) as f64);
            blk_r.push(blk[1] as f64 / blk[0].max(1) as f64);
        }
        pool::set_threads(0);
        let (num_q, blk_q) = (quartiles(num_r), quartiles(blk_r));
        eprintln!(
            "[{name}] auto/serial per-pair ratio median [q1, q3]: numeric {:.3} [{:.3}, {:.3}], \
             solve_block8 {:.3} [{:.3}, {:.3}]",
            num_q[1], num_q[0], num_q[2], blk_q[1], blk_q[0], blk_q[2]
        );
        sass_bench::append_json_record(&format!(
            "{{\"id\":\"factor/auto_vs_serial/{name}\",\"pairs\":{AUTO_PAIRS},\
             \"numeric_ratio\":{:.3},\"numeric_q1\":{:.3},\"numeric_q3\":{:.3},\
             \"solve_block8_ratio\":{:.3},\"solve_block8_q1\":{:.3},\"solve_block8_q3\":{:.3},\
             \"threads_auto\":{}}}",
            num_q[1],
            num_q[0],
            num_q[2],
            blk_q[1],
            blk_q[0],
            blk_q[2],
            pool::threads()
        ));
        if AUTO_GATED.contains(&name.as_str()) {
            for (kernel_name, q) in [("numeric", num_q), ("solve_block8", blk_q)] {
                assert!(
                    q[1] <= AUTO_VS_SERIAL_BOUND,
                    "[{name}] auto {kernel_name} takes {:.2}x serial (median of {AUTO_PAIRS} \
                     per-pair ratios, quartiles [{:.2}, {:.2}]; bound {AUTO_VS_SERIAL_BOUND})",
                    q[1],
                    q[0],
                    q[2]
                );
            }
        }

        for (mode, level) in simd_modes() {
            kernel::set_level(level);
            for (width_label, width) in [("serial", 1usize), ("auto", 0), ("w2", 2), ("w4", 4)] {
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
