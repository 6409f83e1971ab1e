//! Metric names, units, and the result line.

use crate::inputs::FIG5_ROWS;
use crate::stats::{mean, LatencySummary};

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Metric {
    /// A metric summarizing `samples` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric { name: name.into(), value, unit, samples }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Tasks (or requests) attempted.
    pub attempted: usize,
    /// Tasks that returned an error, got a non-200 response, or failed the check.
    pub failed: usize,
    /// Why tasks failed: errors and independent-check mismatches (a run is correct
    /// only without any).
    pub mismatches: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds `other`'s tasks, failures and notes (tagged with `label`), and those of
    /// its metrics whose names `keep` accepts.
    pub fn absorb(&mut self, label: &str, other: Outcome, keep: impl Fn(&str) -> bool) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches.into_iter().map(|m| format!("{label}: {m}")));
        self.notes.extend(other.notes.into_iter().map(|n| format!("[{label}] {n}")));
        self.metrics.extend(other.metrics.into_iter().filter(|m| keep(&m.name)));
    }

    /// Counts one attempted task; an error counts as failed and is kept.
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|why| {
                self.failed += 1;
                self.mismatches.push(why);
            })
            .ok()
    }
}

/// The workloads `BENCHMARK.json` lists, in its order.
pub const WORKLOADS: [&str; 2] = ["wide-instantiate", "partitioned-synth"];

/// Workloads the binary also runs, by hand, that `BENCHMARK.json` does not list: on
/// a shared host their millisecond-scale tasks switch between speed regimes about
/// 1.6× apart for minutes at a time, which no bound of at most 25% survives (see
/// README). The traced runs of the listed workloads measure their layers.
pub const BY_HAND: [&str; 2] = ["fig5-instantiate", "serve-2q"];

/// End-to-end metrics: `(name, unit)`. Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("task_p50_s", "s"),
    ("task_p90_s", "s"),
    ("tasks_per_s", "1/s"),
    ("success_rate", "ratio"),
    ("out_blocks_mean", "count"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that does not run on
/// a workload reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 40] = [
        ("qgl.parse_s", "s"),
        ("qgl.diff_s", "s"),
        ("egraph.simplify_s", "s"),
        ("egraph.nodes_before", "count"),
        ("egraph.nodes_after", "count"),
        ("qvm.jit_s", "s"),
        ("qvm.jit_exprs", "count"),
        ("network.lower_s", "s"),
        ("network.instructions", "count"),
        ("network.arena_scalars", "count"),
        ("tnvm.init_s", "s"),
        ("tnvm.eval_us", "us"),
        ("tnvm.evals", "count"),
        ("tnvm.eval_share", "ratio"),
        ("tnvm.gflops", "GFLOP/s"),
        ("tensor.matmul_us", "us"),
        ("tensor.kron_us", "us"),
        ("tensor.matmul_gflops", "GFLOP/s"),
        ("optimize.lm_self_us", "us"),
        ("optimize.lm_iterations", "count"),
        ("optimize.start_success_ratio", "ratio"),
        ("compile.partition_s", "s"),
        ("compile.synthesis_s", "s"),
        ("compile.refine_s", "s"),
        ("compile.fold_s", "s"),
        ("synth.instantiate_calls", "count"),
        ("synth.instantiate_success_ratio", "ratio"),
        ("synth.blocks_deleted", "count"),
        ("synth.lm_iterations", "count"),
        ("serve.overhead_s", "s"),
        ("serve.dedup_joined_ratio", "ratio"),
        ("serve.rejected", "count"),
        ("qvm.cache_hit_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.tasks", "count"),
        ("ledger.tnvm_share", "ratio"),
        ("ledger.lm_share", "ratio"),
        ("ledger.compile_share", "ratio"),
        ("ledger.serve_share", "ratio"),
        ("ledger.other_share", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (_, row) in FIG5_ROWS {
        out.push((format!("row.{row}.task_s"), "s"));
        out.push((format!("row.{row}.cold_s"), "s"));
        out.push((format!("row.{row}.tnvm_share"), "ratio"));
        out.push((format!("row.{row}.lm_share"), "ratio"));
        out.push((format!("baseline.{row}.task_s"), "s"));
    }
    out
}

/// The end-to-end metrics of one run: the set-up median, the peak resident memory
/// at the end of the timed phase, the latency and throughput summary of the timed
/// phase, the independently checked successes out of `attempted`, and the entangling
/// blocks of every output.
pub fn end_to_end(
    setup_s: f64,
    peak_rss_mib: Option<f64>,
    latency: &LatencySummary,
    successes: usize,
    attempted: usize,
    blocks: &[f64],
) -> Vec<Metric> {
    let n = latency.samples;
    vec![
        Metric::new("setup_s", setup_s, "s", crate::setup::SAMPLES),
        Metric::new("task_p50_s", latency.p50, "s", n),
        Metric::new("task_p90_s", latency.p90, "s", n),
        Metric::new("tasks_per_s", latency.tasks_per_s, "1/s", latency.tasks),
        Metric::new("success_rate", successes as f64 / attempted as f64, "ratio", attempted),
        Metric::new("out_blocks_mean", mean(blocks), "count", blocks.len()),
        Metric::new("peak_rss_mib", peak_rss_mib.unwrap_or(f64::NAN), "MiB", 1),
    ]
}

/// Orders `measured` by `table`, filling names the run did not measure with 0.
///
/// # Panics
///
/// Panics when `measured` holds a name the table does not list, or a unit that
/// differs from the table's: both are bugs in this benchmark.
pub fn complete(table: &[(String, &'static str)], measured: &[Metric]) -> Vec<Metric> {
    for m in measured {
        let listed = table.iter().find(|(n, _)| *n == m.name);
        assert!(
            listed.is_some_and(|(_, u)| *u == m.unit),
            "unlisted metric {} [{}]",
            m.name,
            m.unit
        );
    }
    table
        .iter()
        .map(|(name, unit)| {
            measured
                .iter()
                .find(|m| &m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name.clone(), 0.0, unit, 0))
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
