//! The `serve-2q` workload: an in-process `qudit-serve` with default settings and two
//! closed-loop clients posting `/compile` requests for 2-qubit targets (see
//! `inputs::serve_request` for the mix and where it comes from).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use openqudit::prelude::*;
use openqudit::serve::{ServeConfig, Server, ServerHandle};
use qudit_bench::synthesis_config;

use crate::check::{check_result, Claim};
use crate::client::{
    compile_body, exchange, parse_compile_body, parse_http_response, rebuild_circuit, Target,
};
use crate::env::peak_rss_mib;
use crate::inputs::{serve_request, serve_template, synthesis_row, QUBIT_GATES, SERVE_MATRIX_ROW};
use crate::instantiation::{ledger_line, ledger_metrics, probe};
use crate::layers::{kernels, lower, setup_layers};
use crate::report::{end_to_end, Metric, Outcome};
use crate::setup;
use crate::stats::{ratio, window_medians};

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// Width of the windows the end-to-end statistics are taken in. Each window holds a
/// few hundred requests, so its 90th percentile has ten or more samples beyond it.
pub const WINDOW_SECONDS: f64 = 2.5;

/// One cold set-up: start a server (fresh compiler and expression cache) and wait for
/// one warm-up compile.
fn cold_setup() -> (ServerHandle, Duration) {
    let started = Instant::now();
    let server = Server::start(ServeConfig::default()).expect("an ephemeral local port is free");
    let raw = exchange(server.addr(), "POST", "/compile", &compile_body(&Target::Gate("CNOT"), 0))
        .expect("warm-up request");
    let took = started.elapsed();
    let response = parse_http_response(&raw).expect("warm-up response");
    assert_eq!(response.status, 200, "warm-up compile failed: {}", response.body);
    (server, took)
}

/// Counters of a compilation that the traced run reports, as named in the response
/// body's `metrics` object.
const COUNTERS: [&str; 4] =
    ["instantiate.calls", "instantiate.successes", "refine.blocks_deleted", "lm.iterations"];

/// A response that passed the independent check, reduced to what the metrics need.
/// The clients keep this fixed-size record instead of the raw response, so
/// `peak_rss_mib` measures the server rather than the clients' bookkeeping.
struct Checked {
    /// Whether the recomputed infidelity meets the success threshold.
    success: bool,
    /// Whether the `x-openqudit-dedup` header says the request joined another.
    joined: bool,
    /// Entangling blocks of the output circuit.
    blocks: usize,
    /// Seconds per pass, in `partitioned::PASSES` order.
    passes: [f64; 4],
    /// The [`COUNTERS`].
    counters: [f64; 4],
}

/// A response that failed: why, and whether it was a 429.
struct Failure {
    why: String,
    rejected: bool,
}

/// One request as the client saw it.
struct Sent {
    latency: f64,
    /// Seconds from the start of the timed phase to the response.
    done_at: f64,
    verdict: Result<Checked, Failure>,
}

/// Parses one response and checks it independently against `target`.
fn check_response(raw: std::io::Result<String>, target: &Matrix<f64>) -> Result<Checked, Failure> {
    let fail = |why: String| Failure { why, rejected: false };
    let raw = raw.map_err(|e| fail(format!("transport: {e}")))?;
    let response = parse_http_response(&raw).map_err(|e| fail(format!("transport: {e}")))?;
    if response.status != 200 {
        return Err(Failure {
            why: format!("status {}: {}", response.status, response.body),
            rejected: response.status == 429,
        });
    }
    let body = parse_compile_body(&response.body)
        .map_err(|e| fail(format!("response not parseable: {e}")))?;
    let circuit =
        rebuild_circuit(&body).map_err(|e| fail(format!("response not rebuildable: {e}")))?;
    let claim = Claim { infidelity: body.infidelity, success: body.success };
    let verdict = check_result(&circuit, &body.params, target, claim);
    if let Some(why) = verdict.mismatch {
        return Err(fail(why));
    }
    let pass = |name: &str| {
        body.pass_seconds.iter().filter(|(p, _)| p == name).map(|(_, s)| s).sum::<f64>()
    };
    Ok(Checked {
        success: verdict.success,
        joined: response.dedup.as_deref() == Some("joined"),
        blocks: body.blocks.len(),
        passes: crate::partitioned::PASSES.map(pass),
        counters: COUNTERS.map(|c| body.metrics.get(c).copied().unwrap_or(0.0)),
    })
}

/// When the clients stop.
#[derive(Clone, Copy)]
enum Stop {
    /// At the first shared step after the budget is spent.
    After(Duration),
    /// After exactly this many steps per client.
    Steps(u64),
}

/// Runs the clients; returns every request, the wall time, and the steps per client.
fn run_clients(addr: SocketAddr, seed: u64, stop: Stop) -> (Vec<Sent>, f64, u64) {
    let template = serve_template();
    let barrier = Barrier::new(CLIENTS);
    let halt = AtomicBool::new(false);
    let started = Instant::now();
    let per_client: Vec<(Vec<Sent>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|client| {
                let (template, barrier, halt) = (&template, &barrier, &halt);
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    let mut step = 0u64;
                    loop {
                        // Even steps send the named gate, from both clients at once
                        // (after a barrier), as `report_serve` sends every named-gate
                        // body from every client; odd steps send each client's own
                        // explicit matrix.
                        let shared = step.is_multiple_of(2);
                        if shared {
                            // Both clients reach the same decision: the leader writes
                            // it between two barriers and both read it after.
                            if barrier.wait().is_leader() {
                                let done = match stop {
                                    Stop::After(budget) => started.elapsed() >= budget,
                                    Stop::Steps(n) => step >= n,
                                };
                                halt.store(done, Ordering::SeqCst);
                            }
                            barrier.wait();
                            if halt.load(Ordering::SeqCst) {
                                break;
                            }
                        }
                        let index = if shared {
                            2 * step
                        } else {
                            2 * (step * CLIENTS as u64 + client) + 1
                        };
                        let request = serve_request(template, seed, index);
                        let t0 = Instant::now();
                        let raw = exchange(addr, "POST", "/compile", &request.body);
                        let latency = t0.elapsed().as_secs_f64();
                        let done_at = started.elapsed().as_secs_f64();
                        let verdict = check_response(raw, &request.target);
                        sent.push(Sent { latency, done_at, verdict });
                        step += 1;
                    }
                    (sent, step)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let steps = per_client[0].1;
    (per_client.into_iter().flat_map(|(s, _)| s).collect(), wall, steps)
}

/// Counts every request into `outcome`. Returns the checked 200s, the count of
/// independent successes, and the count of 429s.
fn tally<'a>(sent: &'a [Sent], outcome: &mut Outcome) -> (Vec<(f64, &'a Checked)>, usize, usize) {
    let mut checked = Vec::new();
    let (mut successes, mut rejected) = (0, 0);
    for s in sent {
        outcome.attempted += 1;
        match &s.verdict {
            Ok(c) => {
                successes += usize::from(c.success);
                checked.push((s.latency, c));
            }
            Err(f) => {
                rejected += usize::from(f.rejected);
                outcome.failed += 1;
                outcome.mismatches.push(f.why.clone());
            }
        }
    }
    (checked, successes, rejected)
}

/// The end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (server, first) = cold_setup();
    let (sent, wall, _) =
        run_clients(server.addr(), seed, Stop::After(Duration::from_secs_f64(seconds)));
    server.shutdown();
    let peak_rss = peak_rss_mib();
    let setup_s = setup::median_with_more(first, || {
        let (server, took) = cold_setup();
        server.shutdown();
        took
    });

    let mut outcome = Outcome::default();
    let (checked, successes, _) = tally(&sent, &mut outcome);
    let samples: Vec<(f64, f64)> = sent.iter().map(|s| (s.done_at, s.latency)).collect();
    let (latency, windows) = window_medians(&samples, WINDOW_SECONDS, wall);
    let blocks: Vec<f64> = checked.iter().map(|(_, c)| c.blocks as f64).collect();
    outcome.notes.push(format!(
        "{} requests in {wall:.1} s; latency percentiles and tasks_per_s are medians over {windows} windows of {WINDOW_SECONDS} s",
        sent.len(),
    ));
    outcome.notes.push(latency.p90_note());
    outcome.metrics = end_to_end(setup_s, peak_rss, &latency, successes, sent.len(), &blocks);
    outcome
}

/// The traced run: set-up layers and kernels at the 2-qubit shapes, pass timings and
/// counters from each response body, the serve overhead around them, and a TNVM/LM
/// probe at the same shapes.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let (server, cold) = cold_setup();
    let templates = [serve_template()];
    let mut outcome = Outcome::default();
    outcome.metrics.extend(setup_layers(&QUBIT_GATES, &templates));
    let programs: Vec<TnvmProgram> = templates.iter().map(lower).collect();
    let (kernel_metrics, kernel_line) = kernels(&programs);
    outcome.metrics.extend(kernel_metrics);
    outcome.notes.push(kernel_line);

    let before = server.cache().stats();
    let budget = Duration::from_secs_f64(seconds * 0.35);
    let (plain, plain_wall, steps) = run_clients(server.addr(), seed, Stop::After(budget));
    let (sent, traced_wall, _) = run_clients(server.addr(), seed, Stop::Steps(steps));
    let after = server.cache().stats();
    let (_, _, rejected_plain) = tally(&plain, &mut outcome);
    let (checked, _, rejected) = tally(&sent, &mut outcome);
    let n = checked.len();

    let leaders: Vec<(f64, &Checked)> = checked.into_iter().filter(|(_, c)| !c.joined).collect();
    let latency: f64 = leaders.iter().map(|(l, _)| l).sum();
    let pass_sum = |i: usize| leaders.iter().map(|(_, c)| c.passes[i]).sum::<f64>();
    let passes: f64 = (0..4).map(pass_sum).sum();
    let overhead = ratio(latency - passes, leaders.len() as f64);
    let per = |x: f64| ratio(x, leaders.len() as f64);
    for (i, pass) in crate::partitioned::PASSES.iter().enumerate() {
        outcome.metrics.push(Metric::new(
            format!("compile.{pass}_s"),
            per(pass_sum(i)),
            "s",
            leaders.len(),
        ));
    }
    let count = |name: &str| {
        let i = COUNTERS.iter().position(|c| *c == name).expect("a listed counter");
        leaders.iter().map(|(_, c)| c.counters[i]).sum::<f64>()
    };
    let (calls, successes) = (count("instantiate.calls"), count("instantiate.successes"));
    outcome.metrics.extend([
        Metric::new("synth.instantiate_calls", per(calls), "count", leaders.len()),
        Metric::new(
            "synth.instantiate_success_ratio",
            ratio(successes, calls),
            "ratio",
            leaders.len(),
        ),
        Metric::new(
            "synth.blocks_deleted",
            per(count("refine.blocks_deleted")),
            "count",
            leaders.len(),
        ),
        Metric::new("synth.lm_iterations", per(count("lm.iterations")), "count", leaders.len()),
        Metric::new("serve.overhead_s", overhead, "s", leaders.len()),
        Metric::new(
            "serve.dedup_joined_ratio",
            ratio((n - leaders.len()) as f64, n as f64),
            "ratio",
            n,
        ),
        Metric::new(
            "serve.rejected",
            (rejected + rejected_plain) as f64,
            "count",
            plain.len() + sent.len(),
        ),
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
        traced_wall / plain_wall - 1.0,
        "ratio",
        n,
    ));
    outcome.metrics.push(Metric::new("trace.tasks", n as f64, "count", n));
    let compile = ratio(passes, latency);
    let serve = 1.0 - compile;
    ledger_metrics(&mut outcome.metrics, leaders.len(), [0.0, 0.0, compile, serve, 0.0]);
    outcome.notes.push(ledger_line("workload (leader requests)", 0.0, 0.0, compile, serve, 0.0));

    let config = synthesis_config(&synthesis_row(SERVE_MATRIX_ROW)).instantiate;
    let budget = Duration::from_secs_f64(seconds * 0.1);
    let totals = probe(&templates, &config, server.cache(), seed, budget);
    outcome.metrics.extend(totals.metrics());
    let (tnvm, lm, other) = totals.shares();
    outcome.notes.push(ledger_line(
        "probe (template instantiation, dim 4)",
        tnvm,
        lm,
        0.0,
        0.0,
        other,
    ));
    outcome.notes.push(format!(
        "cold set-up {cold:.4?} | warm request mean {:.6} s over {} leader requests",
        per(latency),
        leaders.len()
    ));
    server.shutdown();
    outcome
}
