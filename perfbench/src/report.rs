//! Metric names, the result line, and the per-layer summary.

use crate::pipeline::TracedRun;
use crate::stats;
use crate::trace::{self, Span};
use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`), with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("sparsify_s", "s"),
    ("pcg_s", "s"),
    ("pcg_iters", "iters"),
    ("density", "edges/vertex"),
    ("kappa_est", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sparse.ordering_s", "s"),
    ("sparse.ldl_s", "s"),
    ("sparse.ldl_nnz", "count"),
    ("solver.grounded_new_s", "s"),
    ("core.embedding.heat_s", "s"),
    ("core.extremes.lambda_max_s", "s"),
    ("core.extremes.lambda_min_s", "s"),
    ("graph.spanning_s", "s"),
    ("graph.laplacian_s", "s"),
    ("core.filter_s", "s"),
    ("core.similarity_s", "s"),
    ("core.rounds", "count"),
    ("core.filter.accept_ratio", "ratio"),
    ("solver.pcg.spmv_s", "s"),
    ("solver.pcg.precond_s", "s"),
    ("solver.pcg.spmv_gbs", "GB/s"),
    ("solver.pcg.sweep_gbs", "GB/s"),
    ("serve.req_per_s", "1/s"),
    ("serve.solve_p50_ms", "ms"),
    ("serve.solve_p99_ms", "ms"),
    ("serve.mutate_p50_ms", "ms"),
    ("serve.mutate_p95_ms", "ms"),
    ("serve.mutate_full_p50_ms", "ms"),
    ("serve.mutate_partial_p50_ms", "ms"),
    ("serve.mutate_skip_p50_ms", "ms"),
    ("serve.solve_many_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.batch_cols_mean", "count"),
    ("serve.protocol_ms", "ms"),
    ("core.incremental.apply_edits_ms", "ms"),
    ("core.incremental.apply_full_ms", "ms"),
    ("core.incremental.apply_partial_ms", "ms"),
    ("core.incremental.apply_skip_ms", "ms"),
    ("core.incremental.factor_reuse", "ratio"),
    ("core.incremental.full_refactor_frac", "ratio"),
    ("serve.cache_key_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("share.sparsify.ordering", "ratio"),
    ("share.sparsify.heat_lambda_max", "ratio"),
    ("share.pcg.precond", "ratio"),
    ("share.solve.library", "ratio"),
    ("trace.sparsify_coverage", "ratio"),
    ("trace.pcg_coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attribution_s", "s"),
];

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    pub attempted: usize,
    pub failed: usize,
    pub errors: Vec<String>,
    /// Sample counts behind the reported statistics.
    pub samples: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
    /// Lines of the self-time summary.
    pub summary: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn count(&mut self, attempted: usize, failed: usize, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors.iter().cloned());
    }

    /// A failure outside any counted operation (set-up, a missing sample).
    pub fn error(&mut self, msg: String) {
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(msg);
    }

    fn missing<'a>(&self, names: &'a [(&'a str, &'a str)]) -> Vec<&'a str> {
        names
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !self.get(n).is_some_and(f64::is_finite))
            .collect()
    }

    pub fn correct(&self, names: &[(&str, &str)]) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.missing(names).is_empty()
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|&(n, unit)| {
                let v = self.get(n).filter(|v| v.is_finite())?;
                Some(format!("\"{n}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}"))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(names),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// Errors, missing metrics and the self-time summary go to stderr.
    pub fn print_summary(&self) {
        for line in &self.summary {
            eprintln!("{line}");
        }
        for e in self.errors.iter().take(20) {
            eprintln!("check failed: {e}");
        }
    }

    /// Writes the spans (JSON lines) and the summary next to them.
    pub fn write_trace(&self, dir: &str, workload: &str, seed: u64) -> std::io::Result<()> {
        if self.spans.is_empty() {
            return Ok(());
        }
        let base = std::path::Path::new(dir).join(format!("{workload}-{seed}"));
        trace::write_spans(&base.with_extension("spans.jsonl"), &self.spans)?;
        std::fs::write(
            base.with_extension("summary.txt"),
            self.summary.join("\n") + "\n",
        )
    }
}

/// Names of the spans that open a traced phase, and which phase they
/// account to.
const SPARSIFY_ROOT: &str = "sparsify";
const PCG_ROOT: &str = "solver.pcg";

/// Self time of spans named `name` whose parent is named `parent`.
fn self_under(spans: &[Span], selfs: &[u64], name: &str, parent: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name && s.parent.is_some_and(|p| spans[p].name == parent))
        .map(|(_, &t)| t)
        .sum::<u64>() as f64
        * 1e-9
}

/// Per-layer metrics and the summary table of the library pipeline.
pub fn library_layers(spans: &[Span], runs: &[TracedRun], report: &mut Report) {
    let graphs = runs.len().max(1) as f64;
    let by_name = trace::summarize(spans);
    let selfs = trace::self_times(spans);
    let layer = |n: &str| by_name.get(n).copied().unwrap_or_default();
    let per_graph = |n: &str| layer(n).self_s / graphs;

    for (metric, span) in [
        ("sparse.ordering_s", "sparse.ordering"),
        ("sparse.ldl_s", "sparse.ldl"),
        ("solver.grounded_new_s", "solver.grounded_new"),
        ("core.embedding.heat_s", "core.embedding.heat"),
        ("core.extremes.lambda_max_s", "core.extremes.lambda_max"),
        ("core.extremes.lambda_min_s", "core.extremes.lambda_min"),
        ("graph.spanning_s", "graph.spanning"),
        ("graph.laplacian_s", "graph.laplacian"),
        ("core.filter_s", "core.filter"),
        ("core.similarity_s", "core.similarity"),
        ("solver.pcg.spmv_s", "solver.pcg.spmv"),
        ("solver.pcg.precond_s", "solver.pcg.precond"),
    ] {
        report.set(metric, per_graph(span));
    }
    let u = |f: fn(&TracedRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
    report.set(
        "sparse.ldl_nnz",
        stats::mean(&u(|r| r.untraced.ldl_nnz as f64)),
    );
    report.set("core.rounds", stats::mean(&u(|r| r.untraced.rounds as f64)));
    let candidates: usize = runs.iter().map(|r| r.untraced.candidates).sum();
    let added: usize = runs.iter().map(|r| r.untraced.added).sum();
    report.set(
        "core.filter.accept_ratio",
        added as f64 / candidates.max(1) as f64,
    );
    let sum = |f: fn(&TracedRun) -> f64| u(f).iter().sum::<f64>();
    report.set(
        "solver.pcg.spmv_gbs",
        sum(|r| r.spmv_bytes) / layer("solver.pcg.spmv").total_s / 1e9,
    );
    report.set(
        "solver.pcg.sweep_gbs",
        sum(|r| r.sweep_bytes) / layer("solver.pcg.precond").total_s / 1e9,
    );

    let sparsify = layer(SPARSIFY_ROOT);
    let pcg = layer(PCG_ROOT);
    let ordering_in_sparsify = self_under(spans, &selfs, "sparse.ordering", "attribution.sparsify");
    report.set(
        "share.sparsify.ordering",
        ordering_in_sparsify / sparsify.total_s,
    );
    report.set(
        "share.sparsify.heat_lambda_max",
        (layer("core.embedding.heat").self_s + layer("core.extremes.lambda_max").self_s)
            / sparsify.total_s,
    );
    report.set(
        "share.pcg.precond",
        layer("solver.pcg.precond").self_s / pcg.total_s,
    );
    report.set(
        "trace.sparsify_coverage",
        1.0 - sparsify.self_s / sparsify.total_s,
    );
    report.set("trace.pcg_coverage", 1.0 - pcg.self_s / pcg.total_s);
    let traced = sum(|r| r.traced_tts_s);
    let untraced = sum(|r| r.untraced.time_to_solution_s);
    report.set("trace.overhead_frac", (traced - untraced) / untraced);
    report.set("trace.attribution_s", sum(|r| r.attribution_s) / graphs);

    report.summary.push(format!(
        "library self time per graph ({} graphs); shares of traced sparsify_s = {:.4} s and pcg_s = {:.4} s",
        runs.len(),
        sparsify.total_s / graphs,
        pcg.total_s / graphs
    ));
    report.summary.push(format!(
        "  {:<28} {:>7} {:>11} {:>9} {:>9}",
        "layer", "calls", "self_s", "sparsify", "pcg"
    ));
    for (name, t) in &by_name {
        let share = |root: &str, total: f64, under: f64| {
            if *name == root {
                t.self_s / total
            } else {
                under / total
            }
        };
        let in_sparsify = share(
            SPARSIFY_ROOT,
            sparsify.total_s,
            sparsify_share(spans, &selfs, name),
        );
        let in_pcg = share(
            PCG_ROOT,
            pcg.total_s,
            self_under(spans, &selfs, name, PCG_ROOT),
        );
        report.summary.push(format!(
            "  {:<28} {:>7} {:>11.6} {:>8.1}% {:>8.1}%",
            name,
            t.count,
            t.self_s / graphs,
            100.0 * in_sparsify,
            100.0 * in_pcg
        ));
    }
    report.summary.push(
        "  (sparsify self time is the replica's own bookkeeping; solver.pcg self time is PCG's recurrence: dots, axpys, centering)"
            .to_string(),
    );
    report.summary.push(format!(
        "  tracing overhead {:+.2}% of untraced time_to_solution_s ({:.4} s traced vs {:.4} s untraced per graph); attribution calls {:.4} s per graph, kept apart",
        100.0 * (traced - untraced) / untraced,
        traced / graphs,
        untraced / graphs,
        sum(|r| r.attribution_s) / graphs
    ));
}

/// Self time a layer spent inside `sparsify`: directly under the traced
/// root, or (ordering/LDL) in the attribution of the rounds' factors.
fn sparsify_share(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    self_under(spans, selfs, name, SPARSIFY_ROOT)
        + self_under(spans, selfs, name, "attribution.sparsify")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name starts with a letter or digit and has at most 64
    /// letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit has at most 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        assert!(END_TO_END.iter().any(|&(n, u)| n == "setup_s" && u == "s"));
        assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
        assert!(!valid_unit("") && !valid_unit("m s"));
    }

    #[test]
    fn result_line_shape() {
        let mut r = Report::default();
        r.count(3, 0, &[]);
        r.set("setup_s", 0.25);
        let line = r.result_line(&[("setup_s", "s")]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}"
        );
        assert!(!r.correct(&[("setup_s", "s"), ("pcg_s", "s")]));
    }
}
