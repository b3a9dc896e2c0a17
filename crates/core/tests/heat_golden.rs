//! Golden digest of the heat embedding.
//!
//! The probe block's layout, the SpMM that applies `L_G` to it and the
//! blocked grounded solve may all change shape for speed, but edge
//! selection depends on every heat bit. This test pins the FNV-1a digest
//! of the `off_tree_heat` bit patterns on one fixed circuit-like graph,
//! recorded from the column-by-column implementation, so any change that
//! moves a single heat by one ulp fails here.

use sass_core::embedding::off_tree_heat;
use sass_core::fingerprint::Fnv1a;
use sass_graph::generators::circuit_grid;
use sass_graph::{spanning, RootedTree};
use sass_solver::GroundedSolver;
use sass_sparse::ordering::OrderingKind;
use sass_sparse::pool;

/// FNV-1a over `circuit_grid(24, 24, 0.1, 3)`'s off-tree heats: default
/// spanning tree, its grounded factor, `t = 2`, `r = 14`, seed 42.
const GOLDEN_HEAT_DIGEST: u64 = 0xc183_6737_07f1_b84a;

fn heat_digest() -> u64 {
    let g = circuit_grid(24, 24, 0.1, 3);
    let tree_ids = spanning::spanning_tree(&g, Default::default()).unwrap();
    let tree = RootedTree::new(&g, tree_ids.clone(), 0).unwrap();
    let off = tree.off_tree_edges(&g);
    let p = g.subgraph_with_edges(tree_ids);
    let solver = GroundedSolver::new(&p.laplacian(), OrderingKind::default()).unwrap();
    let res = off_tree_heat(&g, &off, &g.laplacian(), &solver, 2, 14, 42);
    let mut h = Fnv1a::new();
    h.write_u64(res.heat.len() as u64);
    for &v in &res.heat {
        h.write_f64(v);
    }
    h.write_f64(res.heat_max);
    h.finish()
}

#[test]
fn off_tree_heat_matches_golden_digest() {
    let serial = heat_digest();
    assert_eq!(
        serial, GOLDEN_HEAT_DIGEST,
        "heat digest moved: {serial:#018x}"
    );
    // The same bits at forced pool widths: every lane count runs the
    // dispatched kernels, and none may move a heat.
    for w in [1usize, 2, 3, 8] {
        pool::set_threads(w);
        let got = heat_digest();
        pool::set_threads(0);
        assert_eq!(got, GOLDEN_HEAT_DIGEST, "threads = {w}: {got:#018x}");
    }
}
