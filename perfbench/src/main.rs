//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints human-readable lines
//! followed by one JSON result line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`.

use openqudit::prelude::*;
use openqudit_perfbench::inputs::{fig5_rows, wide_rows, FIG5_GATES, QUBIT_GATES};
use openqudit_perfbench::instantiation::{self, Spec};
use openqudit_perfbench::report::{
    complete, per_layer, result_line, Metric, Outcome, BY_HAND, END_TO_END, WORKLOADS,
};
use openqudit_perfbench::{env, partitioned, serve};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) && !BY_HAND.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; workloads: {}, {}",
            WORKLOADS.join(", "),
            BY_HAND.join(", ")
        ));
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn instantiation_spec(workload: &str) -> Spec {
    match workload {
        "fig5-instantiate" => {
            Spec { rows: fig5_rows, gates: &FIG5_GATES, best_of: 5, fig5_rows: true }
        }
        _ => Spec { rows: wide_rows, gates: &QUBIT_GATES, best_of: 7, fig5_rows: false },
    }
}

fn run(args: &Args) -> Outcome {
    let (seed, seconds) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("partitioned-synth", false) => partitioned::run(seed, seconds),
        // The traced runs of the listed workloads also measure the layers of the
        // by-hand ones, each in half of the run: the Fig. 5 rows and the baseline
        // with `wide-instantiate`, the serve layer with `partitioned-synth`.
        ("wide-instantiate", true) => {
            let mut out = instantiation::run_traced(
                &instantiation_spec("wide-instantiate"),
                seed,
                seconds / 2.0,
            );
            let fig5 = instantiation::run_traced(
                &instantiation_spec("fig5-instantiate"),
                seed,
                seconds / 2.0,
            );
            out.absorb("fig5-instantiate", fig5, |m| {
                m.starts_with("row.") || m.starts_with("baseline.")
            });
            out
        }
        ("partitioned-synth", true) => {
            let mut out = partitioned::run_traced(seed, seconds / 2.0);
            out.absorb("serve-2q", serve::run_traced(seed, seconds / 2.0), |m| {
                m.starts_with("serve.")
            });
            out
        }
        ("serve-2q", false) => serve::run(seed, seconds),
        ("serve-2q", true) => serve::run_traced(seed, seconds),
        (w, false) => instantiation::run(&instantiation_spec(w), seed, seconds),
        (w, true) => instantiation::run_traced(&instantiation_spec(w), seed, seconds),
    }
}

fn main() {
    // Before any library call: every OPENQUDIT_* default applies.
    let cleared = env::clear_openqudit_vars();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "env: workload={} seed={} seconds={} trace={} tier={} verify={:?} optimize={:?} nproc={} commit={} cleared=[{}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        BackendKind::default().name(),
        VerifyLevel::from_env(),
        OptimizeLevel::from_env(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        env::commit(),
        cleared.join(" "),
    );

    let outcome = run(&args);
    let table: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let metrics: Vec<Metric> = complete(&table, &outcome.metrics);
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &metrics {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    let error_rate = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!("error_rate = {error_rate} ({} of {} tasks)", outcome.failed, outcome.attempted);
    for why in outcome.mismatches.iter().take(10) {
        println!("failed: {why}");
    }
    let correct = outcome.mismatches.is_empty() && outcome.attempted > 0;
    println!("{}", result_line(correct, outcome.attempted.max(1), outcome.failed, &metrics));
}
