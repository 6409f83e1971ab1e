//! Set-up layers and tensor kernels, timed by calling each layer's public functions
//! directly on the workload's own gates and circuits.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

use openqudit::egraph::simplify::{simplify_batch_with, SimplifyConfig};
use openqudit::prelude::*;
use openqudit::qgl::Expr;
use openqudit::tensor::{gemm, kron};
use qudit_bench::time_it;

use crate::inputs::GateCtor;
use crate::report::Metric;
use crate::stats::median;

/// Repetitions of each set-up layer measurement; the median is reported.
const SETUP_LAYER_REPS: usize = 3;

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&samples)
}

/// The real/imaginary component batch the expression JIT simplifies: the unitary
/// followed by every partial derivative, row-major, `(re, im)` interleaved.
fn jit_components(expr: &UnitaryExpression, gradient: &[Vec<Vec<ComplexExpr>>]) -> Vec<Expr> {
    let mut out = Vec::new();
    for matrix in std::iter::once(expr.elements()).chain(gradient.iter().map(Vec::as_slice)) {
        for element in matrix.iter().flatten() {
            out.push(element.re.clone());
            out.push(element.im.clone());
        }
    }
    out
}

/// The distinct expressions (by canonical key) the workload's programs JIT.
fn program_exprs(programs: &[TnvmProgram]) -> Vec<UnitaryExpression> {
    let mut seen = BTreeMap::new();
    for program in programs {
        for expr in &program.exprs {
            seen.entry(expr.canonical_key()).or_insert_with(|| expr.clone());
        }
    }
    seen.into_values().collect()
}

/// Lowers `circuit` to TNVM bytecode.
///
/// # Panics
///
/// Panics when lowering fails: every workload circuit is a valid ladder or template.
pub fn lower(circuit: &QuditCircuit) -> TnvmProgram {
    let network = TensorNetwork::from_circuit(circuit);
    try_compile_network(&network).expect("workload circuits lower to bytecode")
}

/// Times every set-up layer on the workload's gates and circuits.
pub fn setup_layers(gates: &[(&str, GateCtor)], circuits: &[QuditCircuit]) -> Vec<Metric> {
    let programs: Vec<TnvmProgram> = circuits.iter().map(lower).collect();
    let exprs = program_exprs(&programs);
    let reps = SETUP_LAYER_REPS;
    let mut metrics = Vec::new();

    let parse = median_of(reps, || {
        gates.iter().map(|(_, ctor)| time_it(|| black_box(ctor())).1.as_secs_f64()).sum()
    });
    metrics.push(Metric::new("qgl.parse_s", parse, "s", reps));

    let diff = median_of(reps, || {
        exprs.iter().map(|e| time_it(|| black_box(e.gradient())).1.as_secs_f64()).sum()
    });
    metrics.push(Metric::new("qgl.diff_s", diff, "s", reps));

    let batches: Vec<Vec<Expr>> = exprs.iter().map(|e| jit_components(e, &e.gradient())).collect();
    let config = SimplifyConfig::default();
    let (mut before, mut after) = (0usize, 0usize);
    let simplify = median_of(reps, || {
        before = 0;
        after = 0;
        let mut total = 0.0;
        for batch in &batches {
            let (result, took) = time_it(|| simplify_batch_with(batch, &config));
            before += result.nodes_before;
            after += result.nodes_after;
            total += took.as_secs_f64();
        }
        total
    });
    metrics.push(Metric::new("egraph.simplify_s", simplify, "s", reps));
    metrics.push(Metric::new("egraph.nodes_before", before as f64, "count", exprs.len()));
    metrics.push(Metric::new("egraph.nodes_after", after as f64, "count", exprs.len()));

    let options = CompileOptions::with_gradient();
    let jit = median_of(reps, || {
        exprs
            .iter()
            .map(|e| {
                time_it(|| black_box(CompiledExpression::compile(e, &options))).1.as_secs_f64()
            })
            .sum()
    });
    metrics.push(Metric::new("qvm.jit_s", jit, "s", reps));
    metrics.push(Metric::new("qvm.jit_exprs", exprs.len() as f64, "count", 1));

    let lower_s = median_of(reps, || {
        circuits.iter().map(|c| time_it(|| black_box(lower(c))).1.as_secs_f64()).sum()
    });
    metrics.push(Metric::new("network.lower_s", lower_s, "s", reps));
    let instructions: usize = programs.iter().map(TnvmProgram::len).sum();
    let arena: usize = programs.iter().map(TnvmProgram::arena_elements).sum();
    metrics.push(Metric::new("network.instructions", instructions as f64, "count", programs.len()));
    metrics.push(Metric::new("network.arena_scalars", arena as f64, "count", programs.len()));

    let cache = ExpressionCache::new();
    for e in &exprs {
        cache.get_or_compile(e, &options);
    }
    let backend = BackendKind::default();
    let init = median_of(reps, || {
        programs
            .iter()
            .map(|p| {
                time_it(|| {
                    black_box(Tnvm::<f64>::with_backend(p, DiffMode::Gradient, &cache, backend))
                })
                .1
                .as_secs_f64()
            })
            .sum()
    });
    metrics.push(Metric::new("tnvm.init_s", init, "s", reps));
    metrics
}

/// A MATMUL shape `(m, k, n)`: `m×k` times `k×n`.
pub type MatmulShape = (usize, usize, usize);

/// A KRON shape `(ar, ac, br, bc)`: `ar×ac` ⊗ `br×bc`.
pub type KronShape = (usize, usize, usize, usize);

/// The MATMUL shape `(m, k, n)` and KRON shape `(ar, ac, br, bc)` that carry the most
/// work in the dynamic sections of `programs`: instruction count times `m·k·n` for
/// MATMUL and times output elements for KRON. By count alone the 4×4 products win on
/// every workload, while the dimension-64 products carry the wide ladder's work.
pub fn dominant_shapes(programs: &[TnvmProgram]) -> (Option<MatmulShape>, Option<KronShape>) {
    let mut matmuls: BTreeMap<MatmulShape, usize> = BTreeMap::new();
    let mut krons: BTreeMap<KronShape, usize> = BTreeMap::new();
    for p in programs {
        let shape = |id: usize| (p.buffers[id].rows, p.buffers[id].cols);
        for op in &p.dynamic_ops {
            match op {
                openqudit::network::TnvmOp::Matmul { a, b, .. } => {
                    let ((m, k), (_, n)) = (shape(*a), shape(*b));
                    *matmuls.entry((m, k, n)).or_default() += m * k * n;
                }
                openqudit::network::TnvmOp::Kron { a, b, .. } => {
                    let ((ar, ac), (br, bc)) = (shape(*a), shape(*b));
                    *krons.entry((ar, ac, br, bc)).or_default() += ar * ac * br * bc;
                }
                _ => {}
            }
        }
    }
    (heaviest(matmuls), heaviest(krons))
}

/// The key with the most work. `BTreeMap` iterates keys in ascending order and
/// `max_by_key` keeps the last maximum, so ties go to the largest shape.
fn heaviest<K>(work: BTreeMap<K, usize>) -> Option<K> {
    work.into_iter().max_by_key(|&(_, w)| w).map(|(k, _)| k)
}

fn operand(len: usize, salt: f64) -> Vec<C64> {
    (0..len)
        .map(|i| C64::new(((i as f64) * 0.37 + salt).sin(), ((i as f64) * 0.11 - salt).cos()))
        .collect()
}

/// Median per-call seconds of `call` over batches of about a millisecond each.
fn per_call(mut call: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let (_, took) = time_it(|| (0..batch).for_each(|_| call()));
        if took >= Duration::from_millis(1) || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let samples: Vec<f64> = (0..15)
        .map(|_| time_it(|| (0..batch).for_each(|_| call())).1.as_secs_f64() / batch as f64)
        .collect();
    median(&samples)
}

/// Times `gemm::matmul_into` and `kron::kron_into` at the [`dominant_shapes`] of
/// `programs`, and returns the metrics plus a line naming the shapes.
pub fn kernels(programs: &[TnvmProgram]) -> (Vec<Metric>, String) {
    let (matmul, kron_shape) = dominant_shapes(programs);
    let mut metrics = Vec::new();
    let mut line = String::from("kernels:");
    if let Some((m, k, n)) = matmul {
        let (a, b) = (operand(m * k, 0.3), operand(k * n, 1.7));
        let mut out = vec![C64::new(0.0, 0.0); m * n];
        let t = per_call(|| gemm::matmul_into(black_box(&a), m, k, black_box(&b), n, &mut out));
        black_box(&out);
        let flops = 8.0 * (m * k * n) as f64;
        metrics.push(Metric::new("tensor.matmul_us", t * 1e6, "us", 15));
        metrics.push(Metric::new("tensor.matmul_gflops", flops / t / 1e9, "GFLOP/s", 15));
        line += &format!(" matmul {m}x{k}·{k}x{n}");
    }
    if let Some((ar, ac, br, bc)) = kron_shape {
        let (a, b) = (operand(ar * ac, 0.9), operand(br * bc, 2.3));
        let mut out = vec![C64::new(0.0, 0.0); ar * ac * br * bc];
        let t =
            per_call(|| kron::kron_into(black_box(&a), ar, ac, black_box(&b), br, bc, &mut out));
        black_box(&out);
        metrics.push(Metric::new("tensor.kron_us", t * 1e6, "us", 15));
        line += &format!(" kron {ar}x{ac}⊗{br}x{bc}");
    }
    (metrics, line)
}
