//! The library workloads: `sparsify`, the preconditioner factor on the
//! sparsifier, then PCG on `L_G` to a fixed tolerance for a handful of
//! right-hand sides.
//!
//! [`run_measured`] calls the public API exactly as shipped. [`run_traced`]
//! drives the same densification through the public per-phase functions
//! in `sparsify`'s order, with a span around each call, and checks that
//! its edge ids equal `sparsify`'s bit for bit.

use crate::trace::Tracer;
use sass_core::embedding::off_tree_heat;
use sass_core::extremes::{estimate_lambda_max, estimate_lambda_min};
use sass_core::filter::{heat_threshold, select_edges};
use sass_core::similarity::filter_similar;
use sass_core::{sparsify, Sparsifier, SparsifyConfig};
use sass_graph::{spanning, Graph, LcaIndex, RootedTree};
use sass_solver::{pcg, GroundedSolver, LaplacianPrec, LinearOperator, PcgOptions, Preconditioner};
use sass_sparse::{dense, ordering, CooMatrix, CsrMatrix, LdlFactor};
use std::cell::Cell;
use std::time::Instant;

/// Relative residual every PCG solve must reach, checked against `L_G`.
pub const PCG_TOL: f64 = 1e-6;

/// What one graph's pipeline produced and how long each phase took.
#[derive(Debug, Clone, Default)]
pub struct GraphRun {
    pub sparsify_s: f64,
    pub pcg_s: f64,
    pub time_to_solution_s: f64,
    pub pcg_iters: usize,
    pub solves: usize,
    pub density: f64,
    pub kappa_est: f64,
    pub rounds: usize,
    pub candidates: usize,
    pub added: usize,
    pub ldl_nnz: usize,
    /// Operations attempted (one `sparsify` plus one per solve) and how
    /// many of them failed or failed a check.
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
}

impl GraphRun {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }
}

fn pcg_options() -> PcgOptions {
    PcgOptions {
        tol: PCG_TOL,
        ..PcgOptions::default()
    }
}

/// Checks the sparsifier's certificate: converged with `κ̂ ≤ σ²`.
fn check_sparsifier(sp: &Sparsifier, sigma2: f64, run: &mut GraphRun) {
    let kappa = sp.condition_estimate();
    if !(sp.converged() && kappa <= sigma2) {
        run.fail(format!(
            "sparsify: converged={} kappa_est={kappa} above sigma2={sigma2}",
            sp.converged()
        ));
    }
}

/// Recomputes `‖L_G x − b‖/‖b‖` rather than trusting the recurrence.
fn check_solution(lg: &CsrMatrix, x: &[f64], b: &[f64], converged: bool, run: &mut GraphRun) {
    let rel = lg.residual_norm(x, b) / dense::norm2(b);
    if !(converged && rel <= PCG_TOL) {
        run.fail(format!(
            "pcg: converged={converged} true relative residual {rel:e} above {PCG_TOL:e}"
        ));
    }
}

/// One untraced pipeline pass through the public API; also returns the
/// sparsifier for the traced run to compare against.
pub fn run_measured(
    g: &Graph,
    rhs: &[Vec<f64>],
    config: &SparsifyConfig,
) -> (GraphRun, Option<Sparsifier>) {
    let mut run = GraphRun {
        attempted: 1 + rhs.len(),
        ..GraphRun::default()
    };
    let t0 = Instant::now();
    let sp = match sparsify(g, config) {
        Ok(sp) => sp,
        Err(e) => {
            run.fail(format!("sparsify: {e}"));
            run.failed = run.attempted;
            return (run, None);
        }
    };
    run.sparsify_s = t0.elapsed().as_secs_f64();
    let solver = match GroundedSolver::new(&sp.graph().laplacian(), config.ordering) {
        Ok(s) => s,
        Err(e) => {
            run.fail(format!("factor: {e}"));
            run.failed = run.attempted;
            return (run, None);
        }
    };
    run.density = sp.density();
    run.kappa_est = sp.condition_estimate();
    run.rounds = sp.rounds().len();
    run.candidates = sp.rounds().iter().map(|r| r.candidates).sum();
    run.added = sp.rounds().iter().map(|r| r.added).sum();
    run.ldl_nnz = solver.nnz_factor();
    let prec = LaplacianPrec::new(solver);
    let lg = g.laplacian();
    let mut solutions = Vec::with_capacity(rhs.len());
    for b in rhs {
        let t = Instant::now();
        let (x, stats) = pcg(&lg, b, &prec, &pcg_options());
        run.pcg_s += t.elapsed().as_secs_f64();
        run.pcg_iters += stats.iterations;
        solutions.push((x, stats.converged));
    }
    run.time_to_solution_s = t0.elapsed().as_secs_f64();
    run.solves = rhs.len();
    check_sparsifier(&sp, config.sigma2, &mut run);
    for ((x, converged), b) in solutions.iter().zip(rhs) {
        check_solution(&lg, x, b, *converged, &mut run);
    }
    (run, Some(sp))
}

/// Laplacian of the subgraph of `g` given by `edge_ids` — the same
/// assembly `sparsify` performs each round, so the replica's arithmetic
/// and the matrices it factors are identical.
fn laplacian_of_edges(g: &Graph, edge_ids: &[u32]) -> CsrMatrix {
    let n = g.n();
    let mut coo = CooMatrix::with_capacity(n, n, n + 2 * edge_ids.len());
    let mut diag = vec![0.0f64; n];
    for &id in edge_ids {
        let e = g.edge(id as usize);
        coo.push(e.u as usize, e.v as usize, -e.weight);
        coo.push(e.v as usize, e.u as usize, -e.weight);
        diag[e.u as usize] += e.weight;
        diag[e.v as usize] += e.weight;
    }
    for (v, &d) in diag.iter().enumerate() {
        coo.push(v, v, d);
    }
    coo.to_csr()
}

fn add_degrees(g: &Graph, ids: &[u32], wdeg: &mut [f64]) {
    for &id in ids {
        let e = g.edge(id as usize);
        wdeg[e.u as usize] += e.weight;
        wdeg[e.v as usize] += e.weight;
    }
}

/// Densification replayed through the public per-phase functions, one
/// span per call. Returns the sorted edge ids, whether it converged, and
/// the Laplacian factored in each round (for the ordering/LDL attribution).
fn replica_sparsify(
    g: &Graph,
    config: &SparsifyConfig,
    t: &Tracer,
) -> Result<(Vec<u32>, bool, Vec<CsrMatrix>), String> {
    let n = g.n();
    let tree_ids = t
        .span("graph.spanning", || spanning::spanning_tree(g, config.tree))
        .map_err(|e| e.to_string())?;
    let (rooted, lca, mut off_tree) = t.span("graph.tree", || {
        let rooted = RootedTree::new(g, tree_ids.clone(), 0).map_err(|e| e.to_string())?;
        let lca = LcaIndex::new(&rooted);
        let off = rooted.off_tree_edges(g);
        Ok::<_, String>((rooted, lca, off))
    })?;
    let lg = t.span("graph.laplacian", || g.laplacian());
    let mut current = tree_ids.clone();
    let mut p_wdeg = vec![0.0f64; n];
    add_degrees(g, &current, &mut p_wdeg);
    let r = config.resolved_num_vectors(n);
    let budget = ((config.max_add_frac * n as f64).ceil() as usize).max(1);
    let mut factored = Vec::new();
    let mut converged = false;

    // Measures the current sparsifier: factor, λmax, λmin.
    let measure = |current: &[u32], p_wdeg: &[f64], seed: u64, factored: &mut Vec<CsrMatrix>| {
        let lp = t.span("sparse.assemble", || laplacian_of_edges(g, current));
        let solver = t
            .span("solver.grounded_new", || {
                GroundedSolver::new(&lp, config.ordering)
            })
            .map_err(|e| e.to_string())?;
        let lambda_max = t.span("core.extremes.lambda_max", || {
            estimate_lambda_max(&lg, &lp, &solver, config.lambda_max_iters, seed)
        });
        let lambda_min = t.span("core.extremes.lambda_min", || {
            estimate_lambda_min(g, p_wdeg)
        });
        factored.push(lp);
        Ok::<_, String>((solver, lambda_max, lambda_min))
    };

    for round in 1..=config.max_rounds {
        let (solver, lambda_max, lambda_min) = measure(
            &current,
            &p_wdeg,
            config.seed ^ (round as u64) << 8,
            &mut factored,
        )?;
        let condition = lambda_max / lambda_min;
        if condition <= config.sigma2 || off_tree.is_empty() {
            converged = condition <= config.sigma2;
            break;
        }
        let heat = t.span("core.embedding.heat", || {
            off_tree_heat(
                g,
                &off_tree,
                &lg,
                &solver,
                config.t_steps,
                r,
                config.seed ^ 0x9e37_79b9 ^ (round as u64),
            )
        });
        let candidates = t.span("core.filter", || {
            let theta = heat_threshold(config.sigma2, lambda_min, lambda_max, config.t_steps);
            select_edges(&off_tree, &heat.heat, heat.heat_max, theta, budget)
        });
        let accepted = t.span("core.similarity", || {
            filter_similar(config.similarity, g, &rooted, &lca, &candidates)
        });
        if accepted.is_empty() {
            break;
        }
        add_degrees(g, &accepted, &mut p_wdeg);
        current.extend_from_slice(&accepted);
        let accepted_set: std::collections::HashSet<u32> = accepted.iter().copied().collect();
        off_tree.retain(|id| !accepted_set.contains(id));
        if round == config.max_rounds {
            let (_, lambda_max, lambda_min) =
                measure(&current, &p_wdeg, config.seed ^ 0xdead, &mut factored)?;
            converged = lambda_max / lambda_min <= config.sigma2;
        }
    }
    current.sort_unstable();
    t.span("graph.subgraph", || {
        g.subgraph_with_edges(current.iter().copied())
    });
    Ok((current, converged, factored))
}

/// `L_G` applied through a span, so PCG's SpMV time is measured from
/// outside the solver.
struct TracedOperator<'a> {
    a: &'a CsrMatrix,
    t: &'a Tracer,
    applies: Cell<usize>,
}

impl LinearOperator for TracedOperator<'_> {
    fn dim(&self) -> usize {
        self.a.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.applies.set(self.applies.get() + 1);
        self.t.span("solver.pcg.spmv", || self.a.apply(x, y));
    }
}

/// The sparsifier preconditioner applied through a span.
struct TracedPreconditioner<'a> {
    m: &'a LaplacianPrec,
    t: &'a Tracer,
    applies: Cell<usize>,
}

impl Preconditioner for TracedPreconditioner<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.applies.set(self.applies.get() + 1);
        self.t.span("solver.pcg.precond", || self.m.apply(r, z));
    }
}

/// A traced pipeline pass, with its untraced twin for the overhead.
#[derive(Debug, Clone, Default)]
pub struct TracedRun {
    pub untraced: GraphRun,
    /// `sparsify`, factor and PCG wall time with spans on.
    pub traced_tts_s: f64,
    /// Wall time of the ordering/LDL attribution calls, kept out of the
    /// tracing overhead.
    pub attribution_s: f64,
    pub spmv_bytes: f64,
    pub sweep_bytes: f64,
}

/// Computed bytes one CSR SpMV streams: values and column indices, the
/// row pointers, and one read of `x` and one write of `y` per row.
fn spmv_bytes(a: &CsrMatrix) -> f64 {
    (a.nnz() * 12 + (a.nrows() + 1) * 8 + a.nrows() * 16) as f64
}

/// Computed bytes of one grounded preconditioner apply: a forward and a
/// backward sweep over `L` (value + index per entry, read and write of
/// the iterate per row) plus the diagonal scaling.
fn sweep_bytes(nnz_l: usize, n: usize) -> f64 {
    (2 * (nnz_l * 12 + n * 16) + n * 24) as f64
}

/// Runs the pipeline untraced, then through the traced replica, on one
/// graph. Spans of this graph carry request id `request`.
pub fn run_traced(
    g: &Graph,
    rhs: &[Vec<f64>],
    config: &SparsifyConfig,
    t: &Tracer,
    request: u64,
) -> TracedRun {
    let (untraced, reference) = run_measured(g, rhs, config);
    let mut out = TracedRun {
        untraced,
        ..TracedRun::default()
    };
    let run = &mut out.untraced;
    t.set_request(request);

    let t0 = Instant::now();
    let replica = t.span("sparsify", || replica_sparsify(g, config, t));
    let factored = match (replica, &reference) {
        (Ok((ids, converged, factored)), Some(sp)) => {
            run.attempted += 1;
            if ids != sp.edge_ids() || converged != sp.converged() {
                run.fail("replica: edge ids differ from sparsify".to_string());
            }
            factored
        }
        (Err(e), _) => {
            run.attempted += 1;
            run.fail(format!("replica: {e}"));
            return out;
        }
        (_, None) => return out,
    };
    let sp = reference.expect("matched Some above");

    let solver = t.span("solver.grounded_new", || {
        GroundedSolver::new(&sp.graph().laplacian(), config.ordering)
    });
    let Ok(solver) = solver else {
        return out;
    };
    let nnz_l = solver.nnz_factor();
    let prec = LaplacianPrec::new(solver);
    let lg = g.laplacian();
    let op = TracedOperator {
        a: &lg,
        t,
        applies: Cell::new(0),
    };
    let m = TracedPreconditioner {
        m: &prec,
        t,
        applies: Cell::new(0),
    };
    for b in rhs {
        t.span("solver.pcg", || pcg(&op, b, &m, &pcg_options()));
    }
    out.traced_tts_s = t0.elapsed().as_secs_f64();
    out.spmv_bytes = op.applies.get() as f64 * spmv_bytes(&lg);
    out.sweep_bytes = m.applies.get() as f64 * sweep_bytes(nnz_l, g.n());

    // GroundedSolver cannot take an outside factor, so the ordering/LDL
    // split comes from the same two calls on each round's grounded matrix.
    let ta = Instant::now();
    let final_lp = sp.graph().laplacian();
    let parents = factored
        .iter()
        .map(|lp| ("attribution.sparsify", lp))
        .chain(std::iter::once(("attribution.factor", &final_lp)));
    for (parent, lp) in parents {
        t.span(parent, || {
            let mut keep = vec![true; lp.nrows()];
            keep[0] = false;
            let (reduced, _) = lp.principal_submatrix(&keep);
            let perm = t.span("sparse.ordering", || {
                ordering::compute(&reduced, config.ordering)
            });
            if let Ok(perm) = perm {
                let _ = t.span("sparse.ldl", || LdlFactor::with_permutation(&reduced, perm));
            }
        });
    }
    out.attribution_s = ta.elapsed().as_secs_f64();
    out
}
