//! The serve session of the traced run: a `sass-serve` server with
//! `ServerConfig::default()` on loopback, driven by closed-loop clients.
//! Its latencies and the replayed library calls are per-layer metrics;
//! on a shared 2-vCPU machine they swing too far between runs to serve as
//! bounded end-to-end metrics.
//!
//! Each client blocks on every reply (that is how `Client` callers use
//! the service), so the loop is closed with [`CLIENTS`] clients. The
//! seeded request mix per client:
//!
//! - ≈85% solves on one shared cached `grid2d(140, 140)` key;
//! - ≈10% single-edge mutates on the client's own cached graphs of the
//!   workload's family, drawn so that each of the three factor paths of
//!   `apply_edits` is taken by about a third of them (see [`Path`]):
//!   a heavy edge between two random vertices, which the sparsifier
//!   selects (a pattern change: full refactor), removed again by the
//!   next mutate; a light edge between two vertices two hops apart,
//!   which it does not select (no factor work), removed likewise; and
//!   extra weight on a spanning-tree edge (same pattern, new values:
//!   partial refactor). The graphs neither grow nor disconnect. Each
//!   mutate is tagged with the path its receipt reports, and mutate
//!   latency is also reported per path so the modes do not mix;
//! - ≈5% resubmits of the shared graph, which are cache hits.
//!
//! Mutates hold the server's state lock for the whole of `apply_edits`
//! and every solve pass needs that lock, so a gain on one request kind
//! that costs the other shows up in the latencies.

use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::{mean_zero, Workload, SIGMA2};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sass_core::{cache_key, IncrementalSparsifier, SparsifyConfig};
use sass_graph::generators::{grid2d, WeightModel};
use sass_graph::spanning::canonical_max_weight_spanning_tree;
use sass_graph::{Graph, GraphEdit};
use sass_serve::{
    serve, Client, Request, Response, ServerConfig, ServerHandle, SparsifyParams, WireEdit,
    WireGraph,
};
use sass_sparse::{dense, CsrMatrix};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client connections: one per core of the 2-vCPU machine the first
/// values were recorded on.
pub const CLIENTS: usize = 2;

/// Side of the shared solve grid.
const SHARED_SIDE: usize = 140;

/// Seeded right-hand sides each client cycles through.
const RHS_POOL: usize = 8;

/// Graphs each client owns and mutates in turn, so one seed's mutate
/// costs do not hinge on a single graph's structure.
const OWN_GRAPHS: usize = 3;

/// Served solves must satisfy `‖L_P x − b‖ ≤ SOLVE_TOL·‖b‖`.
const SOLVE_TOL: f64 = 1e-8;

/// The session is cut into this many consecutive windows of equal
/// sample count; each latency and rate is the median over the windows,
/// so a burst of outside load in one window does not move it.
const WINDOWS: usize = 5;

/// Samples per window for the reported percentiles: ten beyond the p99
/// of solves, ten beyond the p95 of mutates and ten beyond the p50 of
/// each mutate path.
const MIN_SOLVES: usize = 1000 * WINDOWS;
const MIN_MUTATES: usize = 200 * WINDOWS;
const MIN_PER_PATH: usize = 20 * WINDOWS;

/// Hard stop if the minimum samples take this many budgets to gather.
const MAX_BUDGETS: u32 = 4;

fn wire(g: &Graph) -> WireGraph {
    WireGraph {
        n: g.n() as u64,
        edges: g.edges().iter().map(|e| (e.u, e.v, e.weight)).collect(),
    }
}

fn params(config: &SparsifyConfig) -> SparsifyParams {
    SparsifyParams {
        sigma2: SIGMA2,
        seed: config.seed,
    }
}

/// One client's connection, its own graph, and its seeded stream.
struct ClientState {
    client: Client,
    rng: StdRng,
    rhs: Vec<Vec<f64>>,
    own: Vec<Graph>,
    own_keys: Vec<u64>,
    /// Per own graph, the vertex pairs of its canonical maximum-weight
    /// spanning tree: the incremental sparsifier's backbone. Extra weight
    /// on one of them keeps the tree and the factor's pattern.
    tree_pairs: Vec<Vec<(u32, u32)>>,
    /// Which own graph the next edit goes to.
    turn: usize,
    /// The edge this client added and will remove next.
    pending: Option<(u32, u32)>,
}

/// A running server with warm clients and the local replicas the
/// output checks compare against.
pub struct Session {
    server: ServerHandle,
    config: SparsifyConfig,
    /// In-process replica of the shared entry.
    shared: IncrementalSparsifier,
    shared_wire: WireGraph,
    shared_key: u64,
    shared_lp: CsrMatrix,
    clients: Vec<ClientState>,
    /// Each client's starting graphs, for the traced replay.
    own_initial: Vec<Vec<Graph>>,
}

/// The factor work one `apply_edits` call did.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// A sparsity-pattern change (fresh ordering) or an affected share
    /// past the crossover: every column re-ran.
    Full,
    /// Same pattern, new values: only the elimination-tree ancestor
    /// closure of the changed columns re-ran.
    Partial,
    /// The selected subgraph was untouched: no factor work.
    Skip,
}

impl Path {
    const ALL: [Path; 3] = [Path::Full, Path::Partial, Path::Skip];

    fn of(refactored: bool, full: bool) -> Path {
        match (refactored, full) {
            (false, _) => Path::Skip,
            (true, true) => Path::Full,
            (true, false) => Path::Partial,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Path::Full => "full",
            Path::Partial => "partial",
            Path::Skip => "skip",
        }
    }

    /// The replay's per-path `apply_edits` metric.
    fn apply_metric(self) -> &'static str {
        match self {
            Path::Full => "core.incremental.apply_full_ms",
            Path::Partial => "core.incremental.apply_partial_ms",
            Path::Skip => "core.incremental.apply_skip_ms",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Solve,
    Mutate(Path),
    Resubmit,
}

/// One completed request: when it finished (seconds into the session),
/// its kind and its latency.
#[derive(Debug, Clone, Copy)]
struct Event {
    done_s: f64,
    kind: Kind,
    ms: f64,
}

/// Per-client outcome of the closed loop.
#[derive(Default)]
struct Tally {
    events: Vec<Event>,
    batch_cols: Vec<f64>,
    /// (own graph index, edit, path its receipt reported) in the order
    /// they were applied.
    edits: Vec<(usize, WireEdit, Path)>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    fn done(&mut self, ctx: &LoopCtx<'_>, kind: Kind, t0: Instant) {
        self.events.push(Event {
            done_s: ctx.start.elapsed().as_secs_f64(),
            kind,
            ms: ms_since(t0),
        });
    }
}

/// The serve metrics of every window, in window order.
#[derive(Debug, Clone, PartialEq)]
struct Windowed {
    req_per_s: Vec<f64>,
    solve_p50_ms: Vec<f64>,
    solve_p99_ms: Vec<f64>,
    mutate_p50_ms: Vec<f64>,
    mutate_p95_ms: Vec<f64>,
    /// Per [`Path::ALL`] entry, the p50 of the mutates that took it.
    mutate_path_p50_ms: Vec<Vec<f64>>,
}

/// Latencies of the events `keep` selects in completion order, cut into
/// `WINDOWS` chunks of equal count: each chunk's median and `p`-th
/// percentile, or `None` if a chunk cannot support percentile `p`.
fn chunk_percentiles(
    events: &[Event],
    keep: impl Fn(Kind) -> bool,
    p: f64,
) -> Option<(Vec<f64>, Vec<f64>)> {
    let ms: Vec<f64> = events
        .iter()
        .filter(|e| keep(e.kind))
        .map(|e| e.ms)
        .collect();
    let size = ms.len() / WINDOWS;
    if stats::highest_supported(size).is_none_or(|h| h < p) {
        return None;
    }
    let (mut p50, mut tail) = (Vec::new(), Vec::new());
    for chunk in ms.chunks_exact(size) {
        let mut c = chunk.to_vec();
        c.sort_by(f64::total_cmp);
        p50.push(stats::percentile(&c, 50.0));
        tail.push(stats::percentile(&c, p));
    }
    Some((p50, tail))
}

/// Per-window metrics of the session's events (sorted by completion time).
fn windowed(events: &[Event]) -> Option<Windowed> {
    let (solve_p50_ms, solve_p99_ms) = chunk_percentiles(events, |k| k == Kind::Solve, 99.0)?;
    let (mutate_p50_ms, mutate_p95_ms) =
        chunk_percentiles(events, |k| matches!(k, Kind::Mutate(_)), 95.0)?;
    let mutate_path_p50_ms = Path::ALL
        .iter()
        .map(|&path| chunk_percentiles(events, |k| k == Kind::Mutate(path), 50.0).map(|c| c.0))
        .collect::<Option<Vec<_>>>()?;
    let size = events.len() / WINDOWS;
    let mut rates = Vec::new();
    let mut t_prev = 0.0;
    for chunk in events.chunks_exact(size) {
        let t_end = chunk[chunk.len() - 1].done_s;
        rates.push(chunk.len() as f64 / (t_end - t_prev));
        t_prev = t_end;
    }
    Some(Windowed {
        req_per_s: rates,
        solve_p50_ms,
        solve_p99_ms,
        mutate_p50_ms,
        mutate_p95_ms,
        mutate_path_p50_ms,
    })
}

impl Session {
    /// Binds the server, builds the shared entry and every client's own
    /// entry cold, and warms each connection with one solve.
    pub fn start(w: &Workload, seed: u64, config: &SparsifyConfig) -> Result<Session, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_5e55);
        let err = |e: sass_serve::ServeError| e.to_string();
        let server = serve(ServerConfig::default()).map_err(err)?;
        let grid = grid2d(
            SHARED_SIDE,
            SHARED_SIDE,
            WeightModel::Uniform { lo: 0.5, hi: 2.0 },
            rng.gen::<u64>(),
        );
        let shared_wire = wire(&grid);
        let shared = IncrementalSparsifier::new(&grid, config).map_err(|e| e.to_string())?;
        let shared_lp = shared.sparsifier_graph().laplacian();
        let mut clients = Vec::with_capacity(CLIENTS);
        let mut own_initial = Vec::with_capacity(CLIENTS);
        let mut shared_key = 0;
        for _ in 0..CLIENTS {
            let mut client = Client::connect(server.addr()).map_err(err)?;
            let receipt = client
                .sparsify(params(config), shared_wire.clone())
                .map_err(err)?;
            shared_key = receipt.key;
            let mut own = Vec::with_capacity(OWN_GRAPHS);
            let mut own_keys = Vec::with_capacity(OWN_GRAPHS);
            let mut tree_pairs = Vec::with_capacity(OWN_GRAPHS);
            for _ in 0..OWN_GRAPHS {
                let g = w.graph(w.mutate_size, rng.gen::<u64>());
                let key = client.sparsify(params(config), wire(&g)).map_err(err)?.key;
                if key != cache_key(&g, config) {
                    return Err("sparsify receipt key differs from cache_key".to_string());
                }
                let tree = canonical_max_weight_spanning_tree(&g).map_err(|e| e.to_string())?;
                tree_pairs.push(
                    tree.iter()
                        .map(|&id| {
                            let e = g.edge(id as usize);
                            (e.u, e.v)
                        })
                        .collect(),
                );
                own.push(g);
                own_keys.push(key);
            }
            let mut crng = StdRng::seed_from_u64(rng.gen::<u64>());
            let rhs: Vec<Vec<f64>> = (0..RHS_POOL)
                .map(|_| mean_zero(&mut crng, grid.n()))
                .collect();
            client.solve(shared_key, rhs[0].clone(), 0).map_err(err)?;
            own_initial.push(own.clone());
            clients.push(ClientState {
                client,
                rng: crng,
                rhs,
                own,
                own_keys,
                tree_pairs,
                turn: 0,
                pending: None,
            });
        }
        if shared_key != cache_key(&grid, config) {
            return Err("shared receipt key differs from cache_key".to_string());
        }
        Ok(Session {
            server,
            config: config.clone(),
            shared,
            shared_wire,
            shared_key,
            shared_lp,
            clients,
            own_initial,
        })
    }

    /// Runs the closed loop for `budget` (longer if the minimum sample
    /// counts are not met yet), reports its latencies, then replays the
    /// stream's library calls in-process with spans on `tracer`.
    pub fn run(self, budget: Duration, tracer: &Tracer, report: &mut Report) {
        let solves = AtomicUsize::new(0);
        let mutates = Path::ALL.map(|_| AtomicUsize::new(0));
        let start = Instant::now();
        let Session {
            server,
            config,
            shared,
            shared_wire,
            shared_key,
            shared_lp,
            clients,
            own_initial,
        } = self;
        let ctx = LoopCtx {
            config: &config,
            shared_wire: &shared_wire,
            shared_key,
            shared_lp: &shared_lp,
            solves: &solves,
            mutates: &mutates,
            start,
            budget,
        };
        let mut finished: Vec<(ClientState, Tally)> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .into_iter()
                .map(|c| {
                    let ctx = &ctx;
                    s.spawn(move || client_loop(c, ctx))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let server_stats = finished[0].0.client.stats();
        let mut tally = Tally::default();
        for (_, t) in &mut finished {
            tally.events.append(&mut t.events);
            tally.batch_cols.append(&mut t.batch_cols);
            tally.attempted += t.attempted;
            tally.failed += t.failed;
            tally.errors.append(&mut t.errors);
        }
        report.count(tally.attempted, tally.failed, &tally.errors);
        let edits: Vec<Vec<(usize, WireEdit, Path)>> = finished
            .iter_mut()
            .map(|(_, t)| std::mem::take(&mut t.edits))
            .collect();
        drop(finished);
        server.shutdown();

        let mut events = tally.events;
        events.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        let count = |keep: &dyn Fn(Kind) -> bool| events.iter().filter(|e| keep(e.kind)).count();
        let solves = count(&|k| k == Kind::Solve);
        let mutates = count(&|k| matches!(k, Kind::Mutate(_)));
        let per_path = Path::ALL.map(|p| count(&|k| k == Kind::Mutate(p)));
        report.samples.push(("serve_windows", WINDOWS as f64));
        report.samples.push(("serve_solves", solves as f64));
        report.samples.push(("serve_mutates", mutates as f64));
        report
            .samples
            .push(("serve_mutates_full", per_path[0] as f64));
        report
            .samples
            .push(("serve_mutates_partial", per_path[1] as f64));
        report
            .samples
            .push(("serve_mutates_skip", per_path[2] as f64));
        report
            .samples
            .push(("serve_resubmits", count(&|k| k == Kind::Resubmit) as f64));
        let Some(w) = windowed(&events) else {
            report.error(format!(
                "serve: too few samples per window for p99 solves / p95 mutates / p50 per mutate path ({solves} solves, {mutates} mutates, {per_path:?} full/partial/skip, {WINDOWS} windows)"
            ));
            return;
        };
        report
            .summary
            .push(format!("serve windows ({WINDOWS}, equal sample counts):"));
        for (name, values) in [
            ("serve.req_per_s", &w.req_per_s),
            ("serve.solve_p50_ms", &w.solve_p50_ms),
            ("serve.solve_p99_ms", &w.solve_p99_ms),
            ("serve.mutate_p50_ms", &w.mutate_p50_ms),
            ("serve.mutate_p95_ms", &w.mutate_p95_ms),
            ("serve.mutate_full_p50_ms", &w.mutate_path_p50_ms[0]),
            ("serve.mutate_partial_p50_ms", &w.mutate_path_p50_ms[1]),
            ("serve.mutate_skip_p50_ms", &w.mutate_path_p50_ms[2]),
        ] {
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
            report.summary.push(format!(
                "  {name:<28} median {:>9.3} of [{}]",
                stats::median(values),
                shown.join(", ")
            ));
            report.set(name, stats::median(values));
        }

        match server_stats {
            Ok(st) => report.set(
                "serve.cache_hit_ratio",
                st.sparsify_hits as f64 / (st.sparsify_hits + st.sparsify_builds).max(1) as f64,
            ),
            Err(e) => report.error(format!("serve: stats request failed: {e}")),
        }
        let replayed = Replay {
            config: &config,
            shared: &shared,
            own_initial: &own_initial,
            edits: &edits,
            batch_cols: stats::mean(&tally.batch_cols),
            solve_p50_ms: stats::median(&w.solve_p50_ms),
        };
        replay(&replayed, tracer, report);
    }
}

/// What every client thread reads.
struct LoopCtx<'a> {
    config: &'a SparsifyConfig,
    shared_wire: &'a WireGraph,
    shared_key: u64,
    shared_lp: &'a CsrMatrix,
    solves: &'a AtomicUsize,
    /// Completed mutates per [`Path::ALL`] entry.
    mutates: &'a [AtomicUsize; 3],
    start: Instant,
    budget: Duration,
}

impl LoopCtx<'_> {
    fn done(&self) -> bool {
        let elapsed = self.start.elapsed();
        let per_path = self.mutates.each_ref().map(|m| m.load(Ordering::Relaxed));
        let enough = self.solves.load(Ordering::Relaxed) >= MIN_SOLVES
            && per_path.iter().sum::<usize>() >= MIN_MUTATES
            && per_path.iter().all(|&m| m >= MIN_PER_PATH);
        (elapsed >= self.budget && enough) || elapsed >= self.budget * MAX_BUDGETS
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn client_loop(mut c: ClientState, ctx: &LoopCtx<'_>) -> (ClientState, Tally) {
    let mut t = Tally::default();
    while !ctx.done() {
        let draw = c.rng.gen::<f64>();
        t.attempted += 1;
        if draw < 0.85 {
            let b = &c.rhs[c.rng.gen_range(0..RHS_POOL)];
            let t0 = Instant::now();
            let reply = c.client.solve(ctx.shared_key, b.clone(), 0);
            match reply {
                Ok(solved) => {
                    t.done(ctx, Kind::Solve, t0);
                    t.batch_cols.push(f64::from(solved.batch_cols));
                    ctx.solves.fetch_add(1, Ordering::Relaxed);
                    let x = solved.xs.first().map_or(&[][..], |x| &x[..]);
                    let rel = if x.len() == b.len() {
                        ctx.shared_lp.residual_norm(x, b) / dense::norm2(b)
                    } else {
                        f64::INFINITY
                    };
                    if rel.is_nan() || rel > SOLVE_TOL {
                        t.fail(format!("serve solve: ‖L_P x − b‖/‖b‖ = {rel:e}"));
                    }
                }
                Err(e) => t.fail(format!("serve solve: {e}")),
            }
        } else if draw < 0.95 {
            let (i, edit, removed_next) = next_edit(&mut c);
            let t0 = Instant::now();
            let reply = c.client.mutate(c.own_keys[i], vec![edit]);
            match reply {
                Ok(receipt) => {
                    let path = Path::of(receipt.cols_total > 0, receipt.full_refactor);
                    t.done(ctx, Kind::Mutate(path), t0);
                    ctx.mutates[path as usize].fetch_add(1, Ordering::Relaxed);
                    t.edits.push((i, edit, path));
                    match c.own[i].apply_edits(&[edit.to_graph_edit()]) {
                        Ok((g, _)) => c.own[i] = g,
                        Err(e) => t.fail(format!("local edit: {e}")),
                    }
                    c.pending = match edit {
                        WireEdit::Add { u, v, .. } if removed_next => Some((u, v)),
                        _ => {
                            c.turn = (c.turn + 1) % OWN_GRAPHS;
                            None
                        }
                    };
                    let expected = cache_key(&c.own[i], ctx.config);
                    if receipt.key != expected {
                        t.fail(format!(
                            "mutate receipt key {:#x} differs from cache_key {expected:#x}",
                            receipt.key
                        ));
                    }
                    c.own_keys[i] = receipt.key;
                }
                Err(e) => t.fail(format!("serve mutate: {e}")),
            }
        } else {
            let t0 = Instant::now();
            let reply = c
                .client
                .sparsify(params(ctx.config), ctx.shared_wire.clone());
            match reply {
                Ok(r) if r.key == ctx.shared_key => t.done(ctx, Kind::Resubmit, t0),
                Ok(r) => t.fail(format!("resubmit key {:#x} differs", r.key)),
                Err(e) => t.fail(format!("serve resubmit: {e}")),
            }
        }
    }
    (c, t)
}

/// The next edit on the current own graph, and whether the next mutate
/// removes the edge it adds. Removes the edge this client added last if
/// there is one; otherwise draws one of three edits, weighted so that
/// each factor path gets about a third of the mutates (an added edge
/// makes two: its add and its removal):
///
/// - (½) extra weight 0.01–0.1 on a tree edge. Kruskal keeps a tree edge
///   that gets heavier, so the pattern stays and the values change;
/// - (¼) a new edge of weight 4–6 between two random vertices. They lie
///   far apart in the tree, so the edge is hot enough to be selected and
///   the pattern changes; its removal changes it back;
/// - (¼) a new edge of weight 0.001–0.002 between two vertices two hops
///   apart: far too cool to be selected, and so is its removal.
fn next_edit(c: &mut ClientState) -> (usize, WireEdit, bool) {
    let i = c.turn;
    if let Some((u, v)) = c.pending {
        return (i, WireEdit::Remove { u, v }, false);
    }
    let g = &c.own[i];
    let draw = c.rng.gen::<f64>();
    if draw < 0.5 {
        let pairs = &c.tree_pairs[i];
        let (u, v) = pairs[c.rng.gen_range(0..pairs.len())];
        let weight = 0.01 + 0.09 * c.rng.gen::<f64>();
        return (i, WireEdit::Add { u, v, weight }, false);
    }
    let heavy = draw < 0.75;
    loop {
        let u = c.rng.gen_range(0..g.n());
        let v = if heavy {
            c.rng.gen_range(0..g.n())
        } else {
            let hop = |rng: &mut StdRng, x: usize| {
                let k = rng.gen_range(0..g.degree(x));
                g.neighbors(x).nth(k).map_or(x, |(y, _, _)| y as usize)
            };
            let x = hop(&mut c.rng, u);
            hop(&mut c.rng, x)
        };
        if u != v && g.find_edge(u, v).is_none() {
            let weight = if heavy {
                4.0 + 2.0 * c.rng.gen::<f64>()
            } else {
                0.001 + 0.001 * c.rng.gen::<f64>()
            };
            let edit = WireEdit::Add {
                u: u as u32,
                v: v as u32,
                weight,
            };
            return (i, edit, true);
        }
    }
}

/// Inputs of the traced replay.
struct Replay<'a> {
    config: &'a SparsifyConfig,
    shared: &'a IncrementalSparsifier,
    own_initial: &'a [Vec<Graph>],
    edits: &'a [Vec<(usize, WireEdit, Path)>],
    batch_cols: f64,
    solve_p50_ms: f64,
}

/// Repeats of each timed library call; the median is reported.
const REPLAY_REPEATS: usize = 15;

/// Request ids of replayed calls start here, clear of the library
/// pipeline's ids (one per graph).
const FIRST_REPLAY_REQUEST: u64 = 1 << 32;

/// Times `f` [`REPLAY_REPEATS`] times, each call its own request.
fn median_ms(t: &Tracer, next_id: &mut u64, name: &'static str, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPLAY_REPEATS)
        .map(|_| {
            t.set_request(*next_id);
            *next_id += 1;
            let t0 = Instant::now();
            t.span(name, &mut f);
            ms_since(t0)
        })
        .collect();
    stats::median(&times)
}

/// Replays the session's library calls in-process against replica
/// entries, one span per call.
fn replay(r: &Replay<'_>, t: &Tracer, report: &mut Report) {
    let entry = r.shared;
    let shared = entry.graph();
    let n = shared.n();
    let width = (r.batch_cols.round() as usize).max(1);
    let mut rng = StdRng::seed_from_u64(0x9e9e);
    let cols: Vec<Vec<f64>> = (0..width).map(|_| mean_zero(&mut rng, n)).collect();
    let mut next_id = FIRST_REPLAY_REQUEST;
    let solve_many_ms = median_ms(t, &mut next_id, "serve.solve_many", || {
        std::hint::black_box(entry.solver().solve_many(&cols));
    });
    let request = Request::Solve {
        key: cache_key(shared, r.config),
        deadline_ms: 0,
        rhs: cols[0].clone(),
    };
    let response = Response::SolveOk {
        x: cols[0].clone(),
        batch_cols: width as u32,
    };
    let mut protocol_ok = true;
    let protocol_ms = median_ms(t, &mut next_id, "serve.protocol", || {
        let req = Request::decode(&request.encode());
        let resp = Response::decode(&response.encode());
        protocol_ok &= req.as_ref().ok() == Some(&request) && resp.as_ref().ok() == Some(&response);
    });
    if !protocol_ok {
        report.error("serve replay: a frame did not round-trip".to_string());
    }
    let cache_key_ms = median_ms(t, &mut next_id, "serve.cache_key", || {
        std::hint::black_box(cache_key(shared, r.config));
    });

    let mut apply_ms = Vec::new();
    let mut path_ms: [Vec<f64>; 3] = Default::default();
    let (mut refactored, mut total, mut full, mut batches) = (0usize, 0usize, 0usize, 0usize);
    for (graphs, edits) in r.own_initial.iter().zip(r.edits) {
        let mut entries = Vec::with_capacity(graphs.len());
        for g in graphs {
            match IncrementalSparsifier::new(g, r.config) {
                Ok(inc) => entries.push(inc),
                Err(e) => {
                    report.error(format!("serve replay: {e}"));
                    return;
                }
            }
        }
        for &(i, edit, served) in edits {
            let graph_edit: GraphEdit = edit.to_graph_edit();
            t.set_request(next_id);
            next_id += 1;
            let t0 = Instant::now();
            let res = t.span("core.incremental.apply_edits", || {
                entries[i].apply_edits(&[graph_edit])
            });
            let ms = ms_since(t0);
            apply_ms.push(ms);
            match res {
                Ok(rep) => {
                    batches += 1;
                    let path =
                        Path::of(rep.refactor.is_some(), rep.refactor.is_some_and(|s| s.full));
                    path_ms[path as usize].push(ms);
                    if path != served {
                        report.error(format!(
                            "serve replay: apply_edits took the {} path, the served mutate {}",
                            path.name(),
                            served.name()
                        ));
                    }
                    if let Some(s) = rep.refactor {
                        refactored += s.cols_refactored;
                        total += s.total_cols;
                        full += usize::from(s.full);
                    }
                }
                Err(e) => report.error(format!("serve replay apply_edits: {e}")),
            }
        }
    }
    report.set("serve.solve_many_ms", solve_many_ms);
    report.set("serve.wire_ms", r.solve_p50_ms - solve_many_ms);
    report.set("serve.batch_cols_mean", r.batch_cols);
    report.set("serve.protocol_ms", protocol_ms);
    report.set("serve.cache_key_ms", cache_key_ms);
    report.set("share.solve.library", solve_many_ms / r.solve_p50_ms);
    report.set("core.incremental.apply_edits_ms", stats::median(&apply_ms));
    for (path, ms) in Path::ALL.iter().zip(&path_ms) {
        if ms.is_empty() {
            report.error(format!(
                "serve replay: no mutate took the {} path",
                path.name()
            ));
        } else {
            report.set(path.apply_metric(), stats::median(ms));
        }
    }
    report.set(
        "core.incremental.factor_reuse",
        1.0 - refactored as f64 / total.max(1) as f64,
    );
    report.set(
        "core.incremental.full_refactor_frac",
        full as f64 / batches.max(1) as f64,
    );
    let p50 = r.solve_p50_ms;
    report.summary.push(format!(
        "serve: shares of solve_p50_ms = {p50:.4} ms (library calls replayed in-process, median of {REPLAY_REPEATS})"
    ));
    for (name, ms) in [
        ("serve.solve_many", solve_many_ms),
        ("serve.protocol", protocol_ms),
        ("serve.wire (rest)", p50 - solve_many_ms - protocol_ms),
    ] {
        report.summary.push(format!(
            "  {name:<28} {ms:>11.4} ms {:>8.1}%",
            100.0 * ms / p50
        ));
    }
    report.summary.push(format!(
        "  serve.cache_key {cache_key_ms:.4} ms per resubmit; core.incremental.apply_edits p50 {:.4} ms over {} edits",
        stats::median(&apply_ms),
        apply_ms.len()
    ));
    for (path, ms) in Path::ALL.iter().zip(&path_ms) {
        if !ms.is_empty() {
            report.summary.push(format!(
                "    {:<7} path: {:>4} edits, p50 {:.4} ms",
                path.name(),
                ms.len(),
                stats::median(ms)
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(kind: impl Fn(usize) -> Kind, n: usize, ms: impl Fn(usize) -> f64) -> Vec<Event> {
        (0..n)
            .map(|i| Event {
                done_s: (i + 1) as f64 * 0.001,
                kind: kind(i),
                ms: ms(i),
            })
            .collect()
    }

    /// Mutates that take the three paths in turn.
    fn mutate(i: usize) -> Kind {
        Kind::Mutate(Path::ALL[i % 3])
    }

    #[test]
    fn window_medians_ignore_one_slow_window() {
        // Solves 1..=1000 ms repeated in each window, except the last
        // window runs 10x slower; mutates likewise.
        let mut ev = events(
            |_| Kind::Solve,
            MIN_SOLVES,
            |i| {
                let v = (i % 1000 + 1) as f64;
                if i >= MIN_SOLVES - 1000 {
                    10.0 * v
                } else {
                    v
                }
            },
        );
        ev.extend(events(mutate, MIN_MUTATES, |i| (i % 200 + 1) as f64));
        ev.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        let w = windowed(&ev).expect("enough samples");
        assert_eq!(stats::median(&w.solve_p50_ms), 500.0);
        assert_eq!(stats::median(&w.solve_p99_ms), 990.0);
        assert_eq!(w.solve_p99_ms[WINDOWS - 1], 9900.0);
        assert_eq!(stats::median(&w.mutate_p50_ms), 100.0);
        assert_eq!(stats::median(&w.mutate_p95_ms), 190.0);
        assert!(w.req_per_s.iter().all(|&r| r > 0.0));
    }

    #[test]
    fn mutate_paths_are_reported_apart() {
        let mut ev = events(|_| Kind::Solve, MIN_SOLVES, |_| 1.0);
        ev.extend(events(mutate, MIN_MUTATES, |i| [30.0, 20.0, 10.0][i % 3]));
        ev.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
        let w = windowed(&ev).expect("enough samples");
        let p50: Vec<f64> = w
            .mutate_path_p50_ms
            .iter()
            .map(|v| stats::median(v))
            .collect();
        assert_eq!(p50, [30.0, 20.0, 10.0]);
        assert_eq!(stats::median(&w.mutate_p50_ms), 20.0);
    }

    #[test]
    fn windows_need_ten_samples_beyond_each_percentile() {
        let mut ev = events(|_| Kind::Solve, MIN_SOLVES - 1, |_| 1.0);
        ev.extend(events(mutate, MIN_MUTATES, |_| 1.0));
        assert!(windowed(&ev).is_none());
        let mut ev = events(|_| Kind::Solve, MIN_SOLVES, |_| 1.0);
        ev.extend(events(mutate, MIN_MUTATES - 1, |_| 1.0));
        assert!(windowed(&ev).is_none());
        // Enough mutates, but one path has too few for its median.
        let mut ev = events(|_| Kind::Solve, MIN_SOLVES, |_| 1.0);
        ev.extend(events(
            |i| {
                Kind::Mutate(if i < MIN_PER_PATH - 1 {
                    Path::Full
                } else {
                    Path::ALL[1 + i % 2]
                })
            },
            MIN_MUTATES,
            |_| 1.0,
        ));
        assert!(windowed(&ev).is_none());
    }

    #[test]
    fn paths_follow_the_refactor_report() {
        assert_eq!(Path::of(false, false), Path::Skip);
        assert_eq!(Path::of(true, false), Path::Partial);
        assert_eq!(Path::of(true, true), Path::Full);
    }
}
