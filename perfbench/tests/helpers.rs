//! Tests of the benchmark's own helpers.

use openqudit::prelude::*;
use openqudit::serve::{ServeConfig, Server};
use openqudit_perfbench::check::{check_result, same_bits, Claim};
use openqudit_perfbench::client::{
    compile_body, exchange, parse_compile_body, parse_http_response, rebuild_circuit, Target,
};
use openqudit_perfbench::inputs::{
    fig5_rows, instantiation_pool, partitioned_template, serve_request, serve_template,
    synthesis_row, Row, FIG5_ROWS, PARTITIONED_ROW, PARTITIONED_ROW_SEED, SERVE_GATE,
    SERVE_GATE_ROW, SERVE_MATRIX_ROW, SERVE_MATRIX_ROW_SEED,
};
use openqudit_perfbench::layers::{dominant_shapes, lower};
use openqudit_perfbench::pool::{best_of_first, pass_order, run_passes};
use openqudit_perfbench::report::{per_layer, END_TO_END, WORKLOADS};
use openqudit_perfbench::stats::{
    median, percentile, samples_beyond, window_medians, LatencySummary,
};
use openqudit_perfbench::timed::instantiate_traced;

#[test]
fn percentile_needs_ten_samples_beyond() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.5), 50.0);
    assert_eq!(percentile(&samples, 0.9), 90.0);
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert_eq!(samples_beyond(20, 0.5), 10);
    assert_eq!(samples_beyond(19, 0.5), 9);
    assert_eq!(percentile(&[3.0], 0.9), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);

    let summary = LatencySummary::of(&samples, 100, 4.0);
    assert_eq!((summary.p50, summary.p90, summary.beyond_p90), (50.0, 90.0, 10));
    assert_eq!(summary.tasks_per_s, 25.0);
    assert!(summary.p90_note().ends_with("supported") && !summary.p90_note().contains("only"));
    let few = LatencySummary::of(&samples[..99], 99, 1.0);
    assert!(few.p90_note().ends_with("indicative only"));
}

#[test]
fn window_medians_ignore_a_slow_minority_of_windows() {
    // Five 1 s windows of 100 requests each; window 3 runs twice as slow and half as
    // fast. Requests that finish after the last whole window are left out.
    let mut samples = Vec::new();
    for w in 0..5 {
        let slow = if w == 3 { 2.0 } else { 1.0 };
        let count = if w == 3 { 50 } else { 100 };
        for i in 0..count {
            let done_at = w as f64 + (i as f64 + 0.5) / count as f64;
            samples.push((done_at, slow * f64::from(i + 1) / 1000.0));
        }
    }
    samples.push((5.2, 9.0));
    let (summary, windows) = window_medians(&samples, 1.0, 5.3);
    assert_eq!(windows, 5);
    assert_eq!(summary.p50, 0.05);
    assert_eq!(summary.p90, 0.09);
    assert_eq!(summary.tasks_per_s, 100.0);
    assert_eq!((summary.samples, summary.tasks), (450, 450));
    assert_eq!(summary.beyond_p90, 5, "the slow window has only 50 samples");
}

fn small_rows() -> Vec<Row> {
    vec![
        Row { name: "2q", circuit: builders::pqc_qubit_ladder(2, 1).unwrap() },
        Row { name: "2qt", circuit: builders::pqc_qutrit_ladder(2, 1).unwrap() },
    ]
}

#[test]
fn timed_evaluator_runs_the_same_program_as_instantiate_circuit() {
    let rows = small_rows();
    // Warm, as in the benchmark: cache hit/miss counts then agree too.
    let cache = ExpressionCache::new();
    for row in &rows {
        TnvmEvaluator::new(&row.circuit, &cache);
    }
    for (k, task) in instantiation_pool(&rows, 2).iter().enumerate() {
        let circuit = &rows[task.row].circuit;
        let plain = instantiate_circuit(circuit, &task.target, &task.config, &cache);
        let traced = instantiate_traced(circuit, &task.target, &task.config, &cache);
        assert!(same_bits(&traced.result.params, &plain.params), "task {k}");
        assert_eq!(traced.result.infidelity.to_bits(), plain.infidelity.to_bits());
        assert_eq!(traced.result.success, plain.success);
        assert_eq!(traced.result.starts_used, plain.starts_used);
        assert_eq!(traced.result.total_iterations, plain.total_iterations);
        assert_eq!(traced.result.kernels, plain.kernels);
        assert!(traced.evals > 0);
        assert!(traced.eval <= traced.total && traced.construct <= traced.total);
    }
}

#[test]
fn independent_check_catches_corrupted_results() {
    let rows = small_rows();
    let cache = ExpressionCache::new();
    let task = instantiation_pool(&rows, 1).remove(0);
    let (circuit, target) = (&rows[task.row].circuit, &task.target);
    let result = instantiate_circuit(circuit, target, &task.config, &cache);
    let claim = Claim { infidelity: result.infidelity, success: result.success };
    assert!(result.success, "a reachable 2-qubit target instantiates");
    assert!(check_result(circuit, &result.params, target, claim).mismatch.is_none());

    let mut params = result.params.clone();
    params[0] += 1e-3;
    assert!(check_result(circuit, &params, target, claim).mismatch.is_some(), "corrupted params");

    let lying = Claim { infidelity: result.infidelity + 1e-6, ..claim };
    assert!(
        check_result(circuit, &result.params, target, lying).mismatch.is_some(),
        "wrong infidelity"
    );

    let flipped = Claim { success: !claim.success, ..claim };
    assert!(
        check_result(circuit, &result.params, target, flipped).mismatch.is_some(),
        "flipped flag"
    );

    let short = &result.params[1..];
    assert!(check_result(circuit, short, target, claim).mismatch.is_some(), "unevaluable circuit");
}

#[test]
fn http_response_parser_splits_status_dedup_and_body() {
    let raw = "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nX-OpenQudit-Dedup: joined\r\ncontent-length: 2\r\n\r\n{}";
    let r = parse_http_response(raw).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.dedup.as_deref(), Some("joined"));
    assert_eq!(r.body, "{}");

    let r = parse_http_response("HTTP/1.1 429 Too Many Requests\r\n\r\n{\"status\":\"error\"}")
        .unwrap();
    assert_eq!((r.status, r.dedup), (429, None));

    assert!(parse_http_response("HTTP/1.1 200 OK\r\n").is_err(), "no separator");
    assert!(parse_http_response("garbage\r\n\r\n").is_err(), "no status code");
}

#[test]
fn compile_body_parser_reads_every_field() {
    let body = r#"{"backend":"scalar","blocks":[[0,1],[0,1]],"infidelity":2.5e-12,"kernel_metrics":{},"metrics":{"instantiate.calls":3,"lm.iterations":40},"params":[0.5,-1,2],"status":"ok","success":true,"timings":[{"pass":"partition","seconds":0.001},{"pass":"synthesis","seconds":0.25}]}"#;
    let o = parse_compile_body(body).unwrap();
    assert_eq!(o.blocks, vec![(0, 1), (0, 1)]);
    assert_eq!(o.params, vec![0.5, -1.0, 2.0]);
    assert_eq!(o.infidelity, 2.5e-12);
    assert!(o.success);
    assert_eq!(
        o.pass_seconds,
        vec![("partition".to_string(), 0.001), ("synthesis".to_string(), 0.25)]
    );
    assert!((o.pass_total() - 0.251).abs() < 1e-12);
    assert_eq!(o.metrics.get("instantiate.calls"), Some(&3.0));

    assert!(
        parse_compile_body(&body.replace("\"params\"", "\"parms\"")).is_err(),
        "missing params"
    );
    assert!(parse_compile_body(&body.replace("[[0,1],[0,1]]", "[[0,1,2]]")).is_err(), "bad block");
    assert!(parse_compile_body("{").is_err(), "malformed JSON");
}

#[test]
fn served_results_rebuild_and_pass_the_check() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let template = serve_template();
    let mut requests =
        vec![(compile_body(&Target::Gate("CNOT"), 3), gates::cnot().to_matrix(&[]).unwrap())];
    for index in 0..8 {
        let request = serve_request(&template, 9, index);
        requests.push((request.body, request.target));
    }
    let named = requests.iter().filter(|(body, _)| body.contains("\"gate\"")).count();
    assert_eq!(named, 5, "even indices ask for the named gate, odd ones for a matrix");
    for (body, target) in requests {
        let raw = exchange(server.addr(), "POST", "/compile", &body).unwrap();
        let response = parse_http_response(&raw).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(response.dedup.as_deref(), Some("leader"));
        let outcome = parse_compile_body(&response.body).unwrap();
        let circuit = rebuild_circuit(&outcome).unwrap();
        let claim = Claim { infidelity: outcome.infidelity, success: outcome.success };
        let verdict = check_result(&circuit, &outcome.params, &target, claim);
        assert!(verdict.mismatch.is_none(), "{:?}", verdict.mismatch);
        assert!(verdict.success);
    }
    server.shutdown();
}

#[test]
fn serve_inputs_follow_the_seed() {
    let template = serve_template();
    let draw = |seed, index| serve_request(&template, seed, index);
    assert_eq!(draw(1, 3).body, draw(1, 3).body);
    let differing = (0..16).filter(|&i| draw(1, i).body != draw(2, i).body).count();
    assert!(differing >= 12, "only {differing} of 16 requests differ between seeds");
}

/// The inputs start from the paper workloads of `qudit_bench`: the Fig. 5 ladders
/// under their short names, and templates that reproduce the synthesis rows' own
/// targets, so the benchmark cannot drift from what the report binaries measure.
#[test]
fn inputs_follow_the_paper_workloads() {
    let rows = fig5_rows();
    let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
    assert_eq!(names, FIG5_ROWS.map(|(_, short)| short));
    for (row, w) in rows.iter().zip(qudit_bench::fig5_workloads()) {
        assert_eq!(row.circuit.num_params(), w.circuit.num_params());
        assert_eq!(row.circuit.ops().len(), w.circuit.ops().len());
    }

    let same = |a: &Matrix<f64>, b: &Matrix<f64>| {
        (0..a.rows()).all(|r| (0..a.cols()).all(|c| a.get(r, c) == b.get(r, c)))
    };
    let row = synthesis_row(PARTITIONED_ROW);
    let drawn = reachable_target(&partitioned_template(&row), PARTITIONED_ROW_SEED);
    assert!(same(&drawn, &row.target), "partitioned template drifted from {PARTITIONED_ROW}");

    let row = synthesis_row(SERVE_MATRIX_ROW);
    let drawn = reachable_target(&serve_template(), SERVE_MATRIX_ROW_SEED);
    assert!(same(&drawn, &row.target), "serve template drifted from {SERVE_MATRIX_ROW}");

    let row = synthesis_row(SERVE_GATE_ROW);
    let named = gates::cnot().to_matrix::<f64>(&[]).unwrap();
    assert!(same(&named, &row.target), "{SERVE_GATE} is not the {SERVE_GATE_ROW} target");
}

#[test]
fn passes_visit_the_whole_pool_in_seeded_round_robin_orders() {
    let mut order = pass_order(7, 0, 8, 1);
    assert_eq!(order, pass_order(7, 0, 8, 1));
    assert_ne!(order, pass_order(8, 0, 8, 1));
    assert_ne!(order, pass_order(7, 1, 8, 1));
    order.sort_unstable();
    assert_eq!(order, (0..8).collect::<Vec<_>>());

    // Five classes, four rounds: every round visits the classes in order.
    let order = pass_order(7, 0, 20, 5);
    for (i, &task) in order.iter().enumerate() {
        assert_eq!(task % 5, i % 5);
    }
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    assert_ne!(order, (0..20).collect::<Vec<_>>());

    // A pass that takes no time always fits again, so it runs until the budget is spent;
    // the run still consists of whole passes.
    let run = run_passes(3, 5, 1, 0.02, 1, |i| i);
    assert!(run.passes >= 1);
    assert_eq!(run.results.len() as u64, 5 * run.passes);
    for pass in run.results.chunks(5) {
        let mut pass = pass.to_vec();
        pass.sort_unstable();
        assert_eq!(pass, vec![0, 1, 2, 3, 4]);
    }
    // One slow pass does not fit twice in the budget: exactly one pass runs, unless
    // the workload asks for more, which always run.
    let nap = |_| std::thread::sleep(std::time::Duration::from_millis(10));
    assert_eq!(run_passes(3, 2, 1, 0.03, 1, nap).passes, 1);
    assert_eq!(run_passes(3, 2, 1, 0.03, 3, nap).passes, 3);
}

#[test]
fn best_of_first_takes_a_fixed_number_of_passes() {
    // Three passes over three inputs; the best of the first two ignores the third.
    let samples =
        [(0, 2.0), (1, 1.0), (2, 3.0), (2, 2.5), (0, 1.5), (1, 4.0), (0, 0.1), (1, 0.1), (2, 0.1)];
    assert_eq!(best_of_first(3, 2, samples), vec![1.5, 1.0, 2.5]);
    assert_eq!(best_of_first(3, 3, samples), vec![0.1, 0.1, 0.1]);
    let short = std::panic::catch_unwind(|| best_of_first(3, 4, samples));
    assert!(short.is_err(), "a run with fewer passes is a bug");
}

#[test]
fn kernel_shapes_follow_the_work_not_the_count() {
    let wide = lower(&builders::pqc_qubit_ladder(6, 4).unwrap());
    let (matmul, kron) = dominant_shapes(&[wide]);
    assert_eq!(matmul, Some((64, 64, 64)));
    assert!(kron.is_some());
    let qutrits = lower(&builders::pqc_qutrit_ladder(3, 3).unwrap());
    assert_eq!(dominant_shapes(&[qutrits]).0, Some((27, 27, 27)));
}

/// `BENCHMARK.json` and the binary must agree on every name and unit.
#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    use openqudit::serve::json::{parse, Json};
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let doc = parse(text.as_bytes()).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.into(), u.into())).collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> =
        per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(names("per_layer"), layers);
}
