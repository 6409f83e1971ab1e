//! The instantiation workloads, `fig5-instantiate` and `wide-instantiate`: one client
//! running `instantiate_circuit` (`starts: 8, threads: 1`) in a closed loop on a warm
//! expression cache, in whole passes over a pinned pool.

use std::time::{Duration, Instant};

use openqudit::prelude::*;
use qudit_bench::run_baseline_instantiation;

use crate::check::{check_result, same_bits, Claim};
use crate::env::peak_rss_mib;
use crate::inputs::{
    derive, instantiation_pool, stream, GateCtor, InstantiationTask, Row, POOL_PER_ROW,
};
use crate::layers::{kernels, lower, setup_layers};
use crate::pool::{best_of_first, pass_order, run_passes};
use crate::report::{end_to_end, Metric, Outcome};
use crate::setup;
use crate::stats::{mean, median, ratio, LatencySummary};
use crate::timed::{instantiate_traced, TracedInstantiation};

/// An instantiation workload.
pub struct Spec {
    /// Builds the workload's circuits from QGL source.
    pub rows: fn() -> Vec<Row>,
    /// The gate constructors those circuits use.
    pub gates: &'static [(&'static str, GateCtor)],
    /// Passes whose best latency per task the percentiles take (see
    /// [`best_of_first`]); every run completes at least this many.
    pub best_of: usize,
    /// Whether the traced run reports the Fig. 5 rows and the baseline.
    pub fig5_rows: bool,
}

/// Entangling operations (gates on two or more qudits) in `circuit`.
fn entangling_blocks(circuit: &QuditCircuit) -> usize {
    circuit.ops().iter().filter(|op| op.location.len() >= 2).count()
}

/// One cold set-up: build the circuits from QGL source, then JIT every expression and
/// lower and initialize a TNVM for each circuit on a fresh cache.
fn cold_setup(spec: &Spec) -> ((Vec<Row>, ExpressionCache), Duration) {
    let started = Instant::now();
    let rows = (spec.rows)();
    let cache = ExpressionCache::new();
    for row in &rows {
        TnvmEvaluator::new_with_backend(&row.circuit, &cache, BackendKind::default());
    }
    let took = started.elapsed();
    ((rows, cache), took)
}

/// A finished task: its pool index, result, and latency in seconds.
struct Done {
    task: usize,
    result: InstantiationResult,
    latency: f64,
}

/// Checks every result independently; returns successes and fills `outcome`.
fn check_all(
    rows: &[Row],
    pool: &[InstantiationTask],
    done: &[Done],
    outcome: &mut Outcome,
) -> usize {
    let mut successes = 0;
    for d in done {
        let task = &pool[d.task];
        let claim = Claim { infidelity: d.result.infidelity, success: d.result.success };
        let verdict = check_result(&rows[task.row].circuit, &d.result.params, &task.target, claim);
        if let Some(why) = verdict.mismatch {
            outcome.failed += 1;
            outcome.mismatches.push(format!("{}: {why}", rows[task.row].name));
        } else if verdict.success {
            successes += 1;
        }
    }
    successes
}

/// The end-to-end run.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let ((rows, cache), first) = cold_setup(spec);
    let pool = instantiation_pool(&rows, POOL_PER_ROW);
    let run = run_passes(seed, pool.len(), rows.len(), seconds, spec.best_of, |task| {
        let t = &pool[task];
        let t0 = Instant::now();
        let result = instantiate_circuit(&rows[t.row].circuit, &t.target, &t.config, &cache);
        Done { task, result, latency: t0.elapsed().as_secs_f64() }
    });
    let done = run.results;
    let peak_rss = peak_rss_mib();
    let setup_s = setup::median_with_more(first, || cold_setup(spec).1);

    let mut outcome = Outcome { attempted: done.len(), ..Outcome::default() };
    let successes = check_all(&rows, &pool, &done, &mut outcome);
    let latencies =
        best_of_first(pool.len(), spec.best_of, done.iter().map(|d| (d.task, d.latency)));
    let blocks: Vec<f64> =
        done.iter().map(|d| entangling_blocks(&rows[pool[d.task].row].circuit) as f64).collect();
    outcome.notes.push(format!(
        "{} pass(es) over a pool of {}; latencies are the best of the first {}",
        run.passes,
        pool.len(),
        spec.best_of
    ));
    for (i, row) in rows.iter().enumerate() {
        let own: Vec<f64> =
            pool.iter().zip(&latencies).filter(|(t, _)| t.row == i).map(|(_, &l)| l).collect();
        outcome.notes.push(format!("row {}: median task latency {:.6} s", row.name, median(&own)));
    }
    let summary = LatencySummary::of(&latencies, done.len(), run.wall);
    outcome.notes.push(summary.p90_note());
    outcome.metrics = end_to_end(setup_s, peak_rss, &summary, successes, done.len(), &blocks);
    outcome
}

/// Sums over traced instantiations.
#[derive(Default)]
pub struct TraceTotals {
    tasks: usize,
    total: f64,
    construct: f64,
    eval: f64,
    evals: u64,
    iterations: usize,
    starts: usize,
    successes: usize,
    flops: u64,
}

impl TraceTotals {
    /// Adds one traced instantiation.
    pub fn push(&mut self, t: &TracedInstantiation) {
        self.tasks += 1;
        self.total += t.total.as_secs_f64();
        self.construct += t.construct.as_secs_f64();
        self.eval += t.eval.as_secs_f64();
        self.evals += t.evals;
        self.iterations += t.result.total_iterations;
        self.starts += t.result.starts_used;
        self.successes += usize::from(t.result.success);
        self.flops += t.result.kernels.flops.iter().sum::<u64>();
    }

    /// LM time outside TNVM evaluation and evaluator construction.
    fn lm_self(&self) -> f64 {
        (self.total - self.construct - self.eval).max(0.0)
    }

    /// The TNVM-evaluation and LM metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.tasks;
        vec![
            Metric::new("tnvm.eval_us", ratio(self.eval, self.evals as f64) * 1e6, "us", n),
            Metric::new("tnvm.evals", ratio(self.evals as f64, n as f64), "count", n),
            Metric::new("tnvm.eval_share", ratio(self.eval, self.total), "ratio", n),
            Metric::new("tnvm.gflops", ratio(self.flops as f64, self.eval) / 1e9, "GFLOP/s", n),
            Metric::new(
                "optimize.lm_self_us",
                ratio(self.lm_self(), self.iterations as f64) * 1e6,
                "us",
                n,
            ),
            Metric::new(
                "optimize.lm_iterations",
                ratio(self.iterations as f64, n as f64),
                "count",
                n,
            ),
            Metric::new(
                "optimize.start_success_ratio",
                ratio(self.successes as f64, self.starts as f64),
                "ratio",
                n,
            ),
        ]
    }

    /// `tnvm | lm self | other` shares of task time, for the ledger.
    pub fn shares(&self) -> (f64, f64, f64) {
        let tnvm = ratio(self.eval, self.total);
        let lm = ratio(self.lm_self(), self.total);
        (tnvm, lm, ratio(self.construct, self.total))
    }
}

/// Formats one ledger line.
pub fn ledger_line(what: &str, tnvm: f64, lm: f64, compile: f64, serve: f64, other: f64) -> String {
    format!(
        "ledger {what}: tnvm eval {:.1}% | lm self {:.1}% | compile passes {:.1}% | serve overhead {:.1}% | other {:.1}%",
        100.0 * tnvm,
        100.0 * lm,
        100.0 * compile,
        100.0 * serve,
        100.0 * other
    )
}

/// Pushes the five `ledger.*` share metrics.
pub fn ledger_metrics(out: &mut Vec<Metric>, n: usize, shares: [f64; 5]) {
    let names = ["tnvm", "lm", "compile", "serve", "other"];
    for (name, share) in names.iter().zip(shares) {
        out.push(Metric::new(format!("ledger.{name}_share"), share, "ratio", n));
    }
}

/// The traced run: layer timings, the untraced-vs-traced overhead, and (for the
/// Fig. 5 rows) the per-row split and the baseline.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Outcome {
    let ((rows, cache), cold) = cold_setup(spec);
    let circuits: Vec<QuditCircuit> = rows.iter().map(|r| r.circuit.clone()).collect();
    let mut outcome = Outcome::default();
    outcome.metrics.extend(setup_layers(spec.gates, &circuits));
    let programs: Vec<TnvmProgram> = circuits.iter().map(lower).collect();
    let (kernel_metrics, kernel_line) = kernels(&programs);
    outcome.metrics.extend(kernel_metrics);
    outcome.notes.push(kernel_line);

    // Every task runs twice back to back, untraced and traced, alternating which goes
    // first so order effects cancel in the overhead ratio; bit-identical results show
    // that both ran the same program.
    let share = if spec.fig5_rows { 0.5 } else { 0.7 };
    let budget = Duration::from_secs_f64(seconds * share);
    let pool = instantiation_pool(&rows, POOL_PER_ROW);
    let order = pass_order(seed, 0, pool.len(), rows.len());
    let before = cache.stats();
    let started = Instant::now();
    let mut all = TraceTotals::default();
    let mut per_row: Vec<TraceTotals> = rows.iter().map(|_| TraceTotals::default()).collect();
    let (mut plain_total, mut traced_total) = (0.0, 0.0);
    let mut done = Vec::new();
    let mut k = 0;
    while k < rows.len() || started.elapsed() < budget {
        let task = order[k % order.len()];
        let InstantiationTask { row, target, config } = &pool[task];
        let circuit = &rows[*row].circuit;
        let run_plain = || {
            let t0 = Instant::now();
            let result = instantiate_circuit(circuit, target, config, &cache);
            (result, t0.elapsed().as_secs_f64())
        };
        let (plain, traced) = if k % 2 == 0 {
            let plain = run_plain();
            (plain, instantiate_traced(circuit, target, config, &cache))
        } else {
            let traced = instantiate_traced(circuit, target, config, &cache);
            (run_plain(), traced)
        };
        k += 1;
        plain_total += plain.1;
        traced_total += traced.total.as_secs_f64();
        let same = traced.result.infidelity.to_bits() == plain.0.infidelity.to_bits()
            && same_bits(&traced.result.params, &plain.0.params);
        if !same {
            outcome.failed += 1;
            outcome
                .mismatches
                .push(format!("{}: traced result differs from untraced", rows[*row].name));
        }
        all.push(&traced);
        per_row[*row].push(&traced);
        done.push(Done { task, latency: traced.total.as_secs_f64(), result: traced.result });
    }
    let after = cache.stats();
    outcome.attempted = done.len();
    check_all(&rows, &pool, &done, &mut outcome);
    let n = done.len();

    outcome.metrics.extend(all.metrics());
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    outcome.metrics.push(Metric::new(
        "qvm.cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        n,
    ));
    outcome.metrics.push(Metric::new(
        "trace.overhead_ratio",
        traced_total / plain_total - 1.0,
        "ratio",
        n,
    ));
    outcome.metrics.push(Metric::new("trace.tasks", n as f64, "count", n));
    let (tnvm, lm, other) = all.shares();
    ledger_metrics(&mut outcome.metrics, n, [tnvm, lm, 0.0, 0.0, other]);
    outcome.notes.push(ledger_line("workload", tnvm, lm, 0.0, 0.0, other));
    let warm = ratio(all.total, n as f64);
    outcome
        .notes
        .push(format!("cold set-up {cold:.4?} | warm task mean {warm:.6} s over {n} tasks"));

    if spec.fig5_rows {
        let budget = Duration::from_secs_f64(seconds * 0.3);
        let started = Instant::now();
        let mut baseline: Vec<Vec<f64>> = rows.iter().map(|_| Vec::new()).collect();
        for d in &done {
            let t = &pool[d.task];
            if !baseline[t.row].is_empty() && started.elapsed() >= budget {
                continue;
            }
            let base = run_baseline_instantiation(&rows[t.row].circuit, &t.target, &t.config);
            baseline[t.row].push(base.elapsed.as_secs_f64());
        }
        for (i, row) in rows.iter().enumerate() {
            let t = &per_row[i];
            let task = ratio(t.total, t.tasks as f64);
            let (tnvm, lm, other) = t.shares();
            let cold = median(
                &(0..3)
                    .map(|_| {
                        let fresh = ExpressionCache::new();
                        let t0 = Instant::now();
                        TnvmEvaluator::new_with_backend(
                            &row.circuit,
                            &fresh,
                            BackendKind::default(),
                        );
                        t0.elapsed().as_secs_f64()
                    })
                    .collect::<Vec<_>>(),
            );
            let base = mean(&baseline[i]);
            let r = row.name;
            outcome.metrics.extend([
                Metric::new(format!("row.{r}.task_s"), task, "s", t.tasks),
                Metric::new(format!("row.{r}.cold_s"), cold, "s", 3),
                Metric::new(format!("row.{r}.tnvm_share"), tnvm, "ratio", t.tasks),
                Metric::new(format!("row.{r}.lm_share"), lm, "ratio", t.tasks),
                Metric::new(format!("baseline.{r}.task_s"), base, "s", baseline[i].len()),
            ]);
            outcome.notes.push(ledger_line(&format!("row {r}"), tnvm, lm, 0.0, 0.0, other));
            outcome.notes.push(format!(
                "row {r}: cold (JIT+lower+init) {cold:.6} s | warm task {task:.6} s (n={}) | baseline task {base:.6} s (n={}) | baseline/warm {:.2}x",
                t.tasks,
                baseline[i].len(),
                ratio(base, task)
            ));
        }
    }
    outcome
}

/// TNVM-evaluation and LM metrics of a serial instantiation probe: each circuit of
/// `circuits` instantiated in turn against reachable targets, under `config` on one
/// thread, until `budget` is spent (at least one task per circuit).
pub fn probe(
    circuits: &[QuditCircuit],
    config: &InstantiateConfig,
    cache: &ExpressionCache,
    seed: u64,
    budget: Duration,
) -> TraceTotals {
    let mut totals = TraceTotals::default();
    let started = Instant::now();
    let mut k = 0u64;
    while k < circuits.len() as u64 || started.elapsed() < budget {
        let circuit = &circuits[(k % circuits.len() as u64) as usize];
        let target = reachable_target(circuit, derive(seed, stream::TARGET, k) ^ 0x5eed);
        let config = InstantiateConfig {
            threads: 1,
            seed: derive(seed, stream::ENGINE, k),
            ..config.clone()
        };
        totals.push(&instantiate_traced(circuit, &target, &config, cache));
        k += 1;
    }
    totals
}
