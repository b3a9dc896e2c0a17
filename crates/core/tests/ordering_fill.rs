//! Fill pins for the default fill-reducing ordering
//! (`OrderingKind::MinDegree`, approximate minimum degree).
//!
//! On three fixed grounded Laplacians — a mesh, a scale-free graph and a
//! sparsifier from the paper's pipeline — nnz(L) must stay within 1% of
//! the reference value, which is what the exact minimum-degree ordering
//! the crate used before AMD produced on the same inputs. Trading fill for
//! ordering speed beyond that would show up as slower factorizations and
//! solves.

use sass_core::{sparsify, SparsifyConfig};
use sass_graph::generators::{barabasi_albert, circuit_grid, grid2d, WeightModel};
use sass_graph::Graph;
use sass_sparse::ordering::OrderingKind;
use sass_sparse::LdlFactor;

/// nnz(L) of the Laplacian of `g` grounded at vertex 0, under `MinDegree`.
fn grounded_fill(g: &Graph) -> usize {
    let l = g.laplacian();
    let mut keep = vec![true; l.nrows()];
    keep[0] = false;
    let (reduced, _) = l.principal_submatrix(&keep);
    LdlFactor::new(&reduced, OrderingKind::MinDegree)
        .unwrap()
        .nnz_l()
}

fn assert_within_one_percent(name: &str, fill: usize, reference: usize) {
    assert!(
        fill as f64 <= 1.01 * reference as f64,
        "{name}: nnz(L) = {fill} exceeds 1.01 x the reference {reference}"
    );
}

#[test]
fn grid_fill_within_one_percent_of_exact_min_degree() {
    let g = grid2d(30, 30, WeightModel::Unit, 0);
    assert_within_one_percent("grid2d(30, 30)", grounded_fill(&g), 9796);
}

#[test]
fn scale_free_fill_within_one_percent_of_exact_min_degree() {
    let g = barabasi_albert(2000, 3, 1);
    assert_within_one_percent("barabasi_albert(2000, 3)", grounded_fill(&g), 90494);
}

#[test]
fn sparsifier_fill_within_one_percent_of_exact_min_degree() {
    let g = circuit_grid(48, 48, 0.1, 9);
    let sp = sparsify(&g, &SparsifyConfig::new(200.0).with_seed(1)).unwrap();
    assert_within_one_percent(
        "circuit_grid(48, 48) sparsifier",
        grounded_fill(sp.graph()),
        6741,
    );
}
