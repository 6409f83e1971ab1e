//! The traced instantiation path: the same serial program as
//! [`instantiate_circuit`] with `threads: 1`, with a stopwatch around every TNVM
//! evaluation. The benchmark measures layers from outside the program, so the
//! wrapper times calls into `TnvmEvaluator` and nothing inside it.

use std::time::{Duration, Instant};

use openqudit::prelude::*;

/// A [`GradientEvaluator`] that forwards to a [`TnvmEvaluator`] and accumulates the
/// wall-clock time and number of its `evaluate` calls.
pub struct TimedEvaluator {
    inner: TnvmEvaluator,
    /// Total time spent inside `evaluate`.
    pub eval_time: Duration,
    /// Number of `evaluate` calls.
    pub evals: u64,
}

impl TimedEvaluator {
    /// Wraps `inner` with zeroed accumulators.
    pub fn new(inner: TnvmEvaluator) -> Self {
        TimedEvaluator { inner, eval_time: Duration::ZERO, evals: 0 }
    }
}

impl GradientEvaluator for TimedEvaluator {
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn evaluate(&mut self, params: &[f64]) -> (Matrix<f64>, Vec<Matrix<f64>>) {
        let started = Instant::now();
        let out = self.inner.evaluate(params);
        self.eval_time += started.elapsed();
        self.evals += 1;
        out
    }

    fn take_kernel_counters(&mut self) -> KernelCounters {
        self.inner.take_kernel_counters()
    }
}

/// One traced instantiation and the time its layers took.
pub struct TracedInstantiation {
    /// The result, bit-identical to `instantiate_circuit` with `threads: 1`.
    pub result: InstantiationResult,
    /// Whole call: evaluator construction plus every start.
    pub total: Duration,
    /// AOT lowering and TNVM init of the evaluator (warm expression cache).
    pub construct: Duration,
    /// Time inside TNVM `evaluate`.
    pub eval: Duration,
    /// Number of TNVM evaluations.
    pub evals: u64,
}

/// Runs the serial instantiation program of [`instantiate_circuit`] through a
/// [`TimedEvaluator`].
///
/// # Panics
///
/// Panics when `config` would run its starts on more than one thread: the parallel
/// path builds one evaluator per worker inside the library, out of the wrapper's reach.
pub fn instantiate_traced(
    circuit: &QuditCircuit,
    target: &Matrix<f64>,
    config: &InstantiateConfig,
    cache: &ExpressionCache,
) -> TracedInstantiation {
    assert!(config.effective_threads() <= 1, "the traced path is the serial program");
    let started = Instant::now();
    let inner = TnvmEvaluator::new_with_backend(circuit, cache, config.backend);
    let construct = started.elapsed();
    let mut evaluator = TimedEvaluator::new(inner);
    let result = instantiate(&mut evaluator, target, config);
    let total = started.elapsed();
    TracedInstantiation {
        result,
        total,
        construct,
        eval: evaluator.eval_time,
        evals: evaluator.evals,
    }
}
