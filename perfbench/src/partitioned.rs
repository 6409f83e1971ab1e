//! The `partitioned-synth` workload: one client compiling 4-qubit targets in a closed
//! loop through `Compiler::with_cache(..).partitioned_passes()` on the default thread
//! budget, in whole passes over a pinned pool (see `inputs::PARTITIONED_POOL_SEEDS`).

use std::time::{Duration, Instant};

use openqudit::prelude::*;
use qudit_bench::{synthesis_config, SynthWorkload};

use crate::check::{check_result, same_bits, Claim};
use crate::env::peak_rss_mib;
use crate::inputs::{
    partitioned_pool, partitioned_template, synthesis_row, PARTITIONED_ROW, QUBIT_GATES,
};
use crate::instantiation::{ledger_line, ledger_metrics, probe};
use crate::layers::{kernels, lower, setup_layers};
use crate::pool::{best_of_first, pass_order, run_passes};
use crate::report::{end_to_end, Metric, Outcome};
use crate::setup;
use crate::stats::{ratio, LatencySummary};

/// The passes whose timings the traced run reports, in pipeline order.
pub const PASSES: [&str; 4] = ["partition", "synthesis", "refine", "fold"];

/// Passes whose best latency per target the percentiles take (see [`best_of_first`]).
pub const BEST_OF: usize = 5;

/// The workload's state: the template, its compiler, and the row's configuration.
struct Workload {
    template: QuditCircuit,
    compiler: Compiler,
    config: SynthesisConfig,
}

/// One cold set-up: build the template from QGL source, JIT its gates and lower and
/// initialize its TNVM on a fresh cache, and build the compiler over that cache.
fn cold_setup(row: &SynthWorkload) -> (Workload, Duration) {
    let started = Instant::now();
    let template = partitioned_template(row);
    let cache = ExpressionCache::new();
    TnvmEvaluator::new_with_backend(&template, &cache, BackendKind::default());
    let compiler = Compiler::with_cache(cache).partitioned_passes();
    let took = started.elapsed();
    (Workload { template, compiler, config: synthesis_config(row) }, took)
}

struct Done {
    target: usize,
    report: CompilationReport,
    latency: f64,
}

/// Compiles pool target `target`.
fn compile_one(w: &Workload, pool: &[Matrix<f64>], target: usize) -> Result<Done, String> {
    let t0 = Instant::now();
    let compiled = w.compiler.compile(CompilationTask::new(pool[target].clone(), w.config.clone()));
    let latency = t0.elapsed().as_secs_f64();
    compiled
        .map(|report| Done { target, report, latency })
        .map_err(|e| format!("pool target {target}: compile error: {e}"))
}

fn check_all(pool: &[Matrix<f64>], done: &[Done], outcome: &mut Outcome) -> usize {
    let mut successes = 0;
    for d in done {
        let r = &d.report.result;
        let claim = Claim { infidelity: r.infidelity, success: r.success };
        let verdict = check_result(&r.circuit, &r.params, &pool[d.target], claim);
        if let Some(why) = verdict.mismatch {
            outcome.failed += 1;
            outcome.mismatches.push(why);
        } else if verdict.success {
            successes += 1;
        }
    }
    successes
}

/// The end-to-end run: whole passes over the pool, each in a seeded order, at least
/// [`BEST_OF`] and beyond that for as long as another pass (at the last pass's
/// length) fits in `seconds`.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let row = synthesis_row(PARTITIONED_ROW);
    let (w, first) = cold_setup(&row);
    let pool = partitioned_pool(&w.template);
    let mut outcome = Outcome::default();
    let run =
        run_passes(seed, pool.len(), 1, seconds, BEST_OF, |target| compile_one(&w, &pool, target));
    let (pass, wall) = (run.passes, run.wall);
    let peak_rss = peak_rss_mib();
    let setup_s = setup::median_with_more(first, || cold_setup(&row).1);
    let done: Vec<Done> = run.results.into_iter().filter_map(|r| outcome.record(r)).collect();
    let successes = check_all(&pool, &done, &mut outcome);
    let latencies = best_of_first(pool.len(), BEST_OF, done.iter().map(|d| (d.target, d.latency)));
    let blocks: Vec<f64> = done.iter().map(|d| d.report.result.blocks.len() as f64).collect();
    outcome.notes.push(format!(
        "{pass} pass(es) over a pool of {}; latencies are the best of the first {BEST_OF}",
        pool.len()
    ));
    let summary = LatencySummary::of(&latencies, done.len(), wall);
    outcome.notes.push(summary.p90_note());
    outcome.metrics =
        end_to_end(setup_s, peak_rss, &summary, successes, outcome.attempted, &blocks);
    outcome
}

fn counter(report: &CompilationReport, name: &str) -> f64 {
    report.metrics.get(name).copied().unwrap_or(0) as f64
}

/// Per-pass seconds of one compilation, in [`PASSES`] order (0 for a pass that did
/// not run).
fn pass_seconds(report: &CompilationReport) -> [f64; 4] {
    PASSES.map(|pass| {
        report.timings.iter().filter(|t| t.pass == pass).map(|t| t.duration.as_secs_f64()).sum()
    })
}

/// The traced run: set-up layers, kernels, pass timings and counters from each
/// `CompilationReport`, and a TNVM/LM probe at the workload's shape.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let (w, cold) = cold_setup(&synthesis_row(PARTITIONED_ROW));
    let mut outcome = Outcome::default();
    outcome.metrics.extend(setup_layers(&QUBIT_GATES, std::slice::from_ref(&w.template)));
    let (kernel_metrics, kernel_line) = kernels(&[lower(&w.template)]);
    outcome.metrics.extend(kernel_metrics);
    outcome.notes.push(kernel_line);

    // Each pool target is compiled twice back to back, alternating which of the two
    // compiles reads the report, so order effects cancel in the overhead ratio.
    let pool = partitioned_pool(&w.template);
    let order = pass_order(seed, 0, pool.len(), 1);
    let before = w.compiler.cache().stats();
    let budget = Duration::from_secs_f64(seconds * 0.6);
    let started = Instant::now();
    let (mut plain_total, mut traced_total) = (0.0, 0.0);
    let mut done = Vec::new();
    let mut i = 0;
    while i == 0 || started.elapsed() < budget {
        let target = order[i % order.len()];
        let mut pair = [None, None];
        for which in [i % 2, 1 - i % 2] {
            pair[which] = outcome.record(compile_one(&w, &pool, target));
        }
        i += 1;
        let [Some(plain), Some(traced)] = pair else { continue };
        plain_total += plain.latency;
        traced_total += traced.latency;
        let (a, b) = (&plain.report.result, &traced.report.result);
        let same = a.blocks == b.blocks && same_bits(&a.params, &b.params);
        if !same {
            outcome.failed += 1;
            outcome.mismatches.push("repeated compile produced a different circuit".to_string());
        }
        done.push(traced);
    }
    let after = w.compiler.cache().stats();
    check_all(&pool, &done, &mut outcome);
    let n = done.len();

    let mut passes = [0.0f64; 4];
    let (mut calls, mut successes, mut deleted, mut iterations) = (0.0, 0.0, 0.0, 0.0);
    for d in &done {
        for (sum, s) in passes.iter_mut().zip(pass_seconds(&d.report)) {
            *sum += s;
        }
        calls += counter(&d.report, "instantiate.calls");
        successes += counter(&d.report, "instantiate.successes");
        iterations += counter(&d.report, "lm.iterations");
        deleted += d.report.result.blocks_deleted as f64;
    }
    let per_task = |x: f64| ratio(x, n as f64);
    for (pass, sum) in PASSES.iter().zip(passes) {
        outcome.metrics.push(Metric::new(format!("compile.{pass}_s"), per_task(sum), "s", n));
    }
    outcome.metrics.extend([
        Metric::new("synth.instantiate_calls", per_task(calls), "count", n),
        Metric::new("synth.instantiate_success_ratio", ratio(successes, calls), "ratio", n),
        Metric::new("synth.blocks_deleted", per_task(deleted), "count", n),
        Metric::new("synth.lm_iterations", per_task(iterations), "count", n),
    ]);
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

    let task_total: f64 = done.iter().map(|d| d.latency).sum();
    let compile = ratio(passes.iter().sum(), task_total);
    ledger_metrics(&mut outcome.metrics, n, [0.0, 0.0, compile, 0.0, 1.0 - compile]);
    outcome.notes.push(ledger_line("workload", 0.0, 0.0, compile, 0.0, 1.0 - compile));
    let split: Vec<String> = PASSES
        .iter()
        .zip(passes)
        .map(|(p, s)| format!("{p} {:.1}%", 100.0 * ratio(s, task_total)))
        .collect();
    outcome.notes.push(format!("passes: {}", split.join(" | ")));

    let budget = Duration::from_secs_f64(seconds * 0.1);
    let totals = probe(&[w.template], &w.config.instantiate, w.compiler.cache(), seed, budget);
    outcome.metrics.extend(totals.metrics());
    let (tnvm, lm, other) = totals.shares();
    outcome.notes.push(ledger_line(
        "probe (template instantiation, dim 16)",
        tnvm,
        lm,
        0.0,
        0.0,
        other,
    ));
    outcome.notes.push(format!(
        "cold set-up {cold:.4?} | warm task mean {:.4} s over {n} tasks",
        ratio(task_total, n as f64)
    ));
    outcome
}
