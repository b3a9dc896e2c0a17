//! End-to-end benchmark of the SASS pipeline and service.
//!
//! ```text
//! perfbench --workload <circuit|scalefree> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is one graph family. A run builds a seeded set of graphs
//! (set-up), then takes them through the library pipeline as shipped —
//! `sparsify` → preconditioner factor → PCG on `L_G` — for `--seconds`,
//! and prints the end-to-end metrics as its last stdout line.
//!
//! `--trace 1` is a separate run that prints the per-layer metrics: it
//! replays densification through the public per-phase functions with a
//! span around each call, times PCG's operator and preconditioner through
//! wrappers, then drives a `sass-serve` session (see [`serve`]) and
//! replays its library calls. Spans and the self-time summary are written
//! under `--trace-out`.
//!
//! Every output is checked; a failed check counts in `failed`, and the
//! exit code is nonzero.

mod pipeline;
mod report;
mod serve;
mod stats;
mod trace;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use report::Report;
use sass_core::SparsifyConfig;
use sass_graph::generators::{barabasi_albert, circuit_grid};
use sass_graph::Graph;
use std::time::{Duration, Instant};

/// Spectral similarity target of every sparsifier the benchmark builds.
pub const SIGMA2: f64 = 100.0;

/// Right-hand sides solved per library graph.
const RHS_PER_GRAPH: usize = 3;

/// Share of `--seconds` the traced run gives its serve session.
const SERVE_SHARE: f64 = 0.5;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    Circuit,
    ScaleFree,
}

/// One workload: a graph family, the library graph set drawn from it,
/// and the graphs each serve client mutates.
#[derive(Debug, Clone, Copy)]
struct Workload {
    family: Family,
    /// Library graphs per run and their size parameter.
    graphs: usize,
    size: usize,
    /// Size parameter of each serve client's own mutable graph.
    mutate_size: usize,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            // The paper's VLSI case (Table 2): heat embedding and λmax are
            // the largest shares of `sparsify`; PCG is SpMV and sweep bound.
            "circuit" => Some(Workload {
                family: Family::Circuit,
                graphs: 48,
                size: 100,
                mutate_size: 60,
            }),
            // Hub-heavy sparsifiers: min-degree ordering dominates
            // `sparsify` while heat is a small share.
            "scalefree" => Some(Workload {
                family: Family::ScaleFree,
                graphs: 60,
                size: 3000,
                mutate_size: 3000,
            }),
            _ => None,
        }
    }

    fn graph(&self, size: usize, seed: u64) -> Graph {
        match self.family {
            Family::Circuit => circuit_grid(size, size, 0.1, seed),
            Family::ScaleFree => barabasi_albert(size, 3, seed),
        }
    }
}

/// A seeded mean-zero right-hand side of length `n`.
pub fn mean_zero(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut b: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    let mean = b.iter().sum::<f64>() / n as f64;
    b.iter_mut().for_each(|x| *x -= mean);
    b
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    rustc: String,
    trace_out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        commit: "unknown".to_string(),
        rustc: "unknown".to_string(),
        trace_out: "perfbench/traces".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--commit" => args.commit = value.clone(),
            "--rustc" => args.rustc = value.clone(),
            "--trace-out" => args.trace_out = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// One seeded library input: the graph, the seed it was generated from,
/// and its right-hand sides.
struct LibraryInput {
    seed: u64,
    graph: Graph,
    rhs: Vec<Vec<f64>>,
}

/// The seeded library inputs, with each graph's generation time: set-up
/// is graph construction only, so the right-hand sides are drawn outside
/// the timed region.
fn library_inputs(w: &Workload, seed: u64) -> (Vec<LibraryInput>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11b_7a5e);
    let mut build_s = Vec::with_capacity(w.graphs);
    let inputs = (0..w.graphs)
        .map(|_| {
            let seed = rng.gen::<u64>();
            let t = Instant::now();
            let graph = w.graph(w.size, seed);
            build_s.push(t.elapsed().as_secs_f64());
            let rhs = (0..RHS_PER_GRAPH)
                .map(|_| mean_zero(&mut rng, graph.n()))
                .collect();
            LibraryInput { seed, graph, rhs }
        })
        .collect();
    (inputs, build_s)
}

/// Peak resident set size of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The provenance line. `features` are the library crates' defaults,
/// which perfbench/Cargo.toml builds with.
fn provenance(args: &Args, report: &Report) -> String {
    let pool = sass_sparse::pool::Pool::global();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let samples: Vec<String> = report
        .samples
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "{{\"provenance\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"pool_lanes\":{},\"pool_workers\":{},\"simd\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"features\":[\"parallel\",\"simd\"],\"samples\":{{{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        pool.threads(),
        pool.worker_count(),
        sass_sparse::kernel::detected().name(),
        report::escape(&args.rustc),
        report::escape(&args.commit),
        samples.join(",")
    )
}

fn run(args: &Args, w: &Workload) -> Report {
    let mut report = Report::default();
    let config = SparsifyConfig::new(SIGMA2);
    let budget = Duration::from_secs_f64(args.seconds);

    let (inputs, build_s) = library_inputs(w, args.seed);
    if !args.trace {
        pipeline_measured(w, &inputs, build_s, &config, budget, &mut report);
        report.set("peak_rss_mib", peak_rss_mib());
        return report;
    }
    let tracer = trace::Tracer::default();
    pipeline_traced(&inputs, &config, &tracer, &mut report);
    match serve::Session::start(w, args.seed, &config) {
        Ok(session) => session.run(budget.mul_f64(SERVE_SHARE), &tracer, &mut report),
        Err(e) => report.error(format!("serve set-up: {e}")),
    }
    report.spans = tracer.into_spans();
    report
}

/// Passes over the graph set until the budget is spent (at least one).
///
/// Set-up is timed across the run, not only before it: before each
/// graph's pipeline pass the graph is generated again from its seed and
/// the generation timed, so `setup_s` samples the machine under the same
/// conditions as the pipeline metrics rather than in one burst of well
/// under a second.
fn pipeline_measured(
    w: &Workload,
    inputs: &[LibraryInput],
    build_s: Vec<f64>,
    config: &SparsifyConfig,
    budget: Duration,
    report: &mut Report,
) {
    let start = Instant::now();
    let k = inputs.len();
    let mut builds: Vec<Vec<f64>> = build_s.into_iter().map(|t| vec![t]).collect();
    let mut runs: Vec<pipeline::GraphRun> = Vec::new();
    // Cycle through the set; stop once the budget is spent and every
    // graph has run at least once.
    while runs.len() < k || start.elapsed() < budget {
        let i = runs.len() % k;
        let input = &inputs[i];
        let t = Instant::now();
        let rebuilt = w.graph(w.size, input.seed);
        builds[i].push(t.elapsed().as_secs_f64());
        if rebuilt.edges() != input.graph.edges() {
            report.error(format!("graph {i} did not regenerate from its seed"));
        }
        drop(rebuilt);
        let (run, _) = pipeline::run_measured(&input.graph, &input.rhs, config);
        report.count(run.attempted, run.failed, &run.errors);
        runs.push(run);
    }
    // Set-up is generating every graph once: per graph the median of its
    // generations, summed.
    let setup: f64 = builds.iter().map(|b| stats::median(b)).sum();
    report.set("setup_s", setup);
    // Per graph the median over its passes, so outside load that slows
    // one pass drops out; then the mean over the graphs, which moves
    // smoothly with the share of graphs that need an extra round where a
    // median would jump between the 3- and 4-round clusters.
    let per_graph = |f: fn(&pipeline::GraphRun) -> f64| {
        let medians: Vec<f64> = (0..k)
            .map(|i| stats::median(&runs.iter().skip(i).step_by(k).map(f).collect::<Vec<_>>()))
            .collect();
        stats::mean(&medians)
    };
    report.set("time_to_solution_s", per_graph(|r| r.time_to_solution_s));
    report.set("sparsify_s", per_graph(|r| r.sparsify_s));
    report.set("pcg_s", per_graph(|r| r.pcg_s));
    // Quality values are exact for a seed: take them from the first pass.
    let first = &runs[..k];
    let iters: usize = first.iter().map(|r| r.pcg_iters).sum();
    let solves: usize = first.iter().map(|r| r.solves).sum();
    report.set("pcg_iters", iters as f64 / solves.max(1) as f64);
    report.set(
        "density",
        stats::mean(&first.iter().map(|r| r.density).collect::<Vec<_>>()),
    );
    report.set(
        "kappa_est",
        stats::mean(&first.iter().map(|r| r.kappa_est).collect::<Vec<_>>()),
    );
    report.samples.push(("library_graphs", k as f64));
    report
        .samples
        .push(("setup_builds_per_graph", builds[k - 1].len() as f64));
    report
        .samples
        .push(("library_graph_runs", runs.len() as f64));
}

/// One traced pass over the graph set; per-layer self times are reported
/// per graph (mean), shares against the traced `sparsify`/PCG totals.
fn pipeline_traced(
    inputs: &[LibraryInput],
    config: &SparsifyConfig,
    tracer: &trace::Tracer,
    report: &mut Report,
) {
    let mut runs = Vec::new();
    for (i, input) in inputs.iter().enumerate() {
        let run = pipeline::run_traced(&input.graph, &input.rhs, config, tracer, i as u64);
        let u = &run.untraced;
        report.count(u.attempted, u.failed, &u.errors);
        runs.push(run);
    }
    report::library_layers(&tracer.snapshot(), &runs, report);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = Workload::parse(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let report = run(&args, &w);
    if let Err(e) = report.write_trace(&args.trace_out, &args.workload, args.seed) {
        eprintln!("perfbench: writing the trace failed: {e}");
        std::process::exit(1);
    }
    report.print_summary();
    println!("{}", provenance(&args, &report));
    let names = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    println!("{}", report.result_line(names));
    if !report.correct(names) {
        std::process::exit(1);
    }
}
