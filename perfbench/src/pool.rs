//! Whole passes over a pinned input pool.
//!
//! A workload whose per-task cost varies several-fold cannot sample fresh inputs from
//! every seed: a run sees a few dozen tasks, and the mix of cheap and expensive ones
//! would move its throughput and percentiles by tens of percent from seed to seed.
//! Such a workload pins its pool and compiles it in whole passes; `--seed` sets the
//! order in which each pass visits the pool.

use std::time::Instant;

use crate::inputs::{derive, stream};

/// The order in which pass `pass` visits a pool of `len` inputs under `seed`. The
/// pool is `classes` interleaved classes (input `i` belongs to class `i % classes`,
/// as the rows of an instantiation pool do); a pass keeps visiting the classes
/// round-robin and shuffles only which input of each class comes in each round.
///
/// # Panics
///
/// Panics when `classes` is 0 or does not divide `len`.
pub fn pass_order(seed: u64, pass: u64, len: usize, classes: usize) -> Vec<usize> {
    assert!(
        classes > 0 && len.is_multiple_of(classes),
        "{classes} classes do not divide a pool of {len}"
    );
    let rounds = len / classes;
    let shuffled: Vec<Vec<usize>> = (0..classes)
        .map(|class| {
            let mut slots: Vec<usize> = (0..rounds).collect();
            let key = |slot: usize| (pass << 40) ^ ((class as u64) << 20) ^ slot as u64;
            slots.sort_by_key(|&slot| derive(seed, stream::ORDER, key(slot)));
            slots
        })
        .collect();
    (0..rounds)
        .flat_map(|round| {
            shuffled.iter().enumerate().map(move |(class, slots)| slots[round] * classes + class)
        })
        .collect()
}

/// The fastest latency of each pool input over the first `passes` passes of a run,
/// from `(input, latency)` samples in run order (`len` per pass). Host contention on
/// a shared machine comes and goes within seconds and slows a small task by up to
/// ~1.8×; the best of a few passes filters it out, so the latency percentiles describe
/// the task mix rather than the neighbours. The count is fixed per workload, not set
/// by how many passes fit: a best of more passes reads lower, and the estimate would
/// otherwise move with the speed it measures.
///
/// # Panics
///
/// Panics when the samples hold fewer than `passes` whole passes (every run completes
/// at least that many; see [`run_passes`]).
pub fn best_of_first(
    len: usize,
    passes: usize,
    samples: impl IntoIterator<Item = (usize, f64)>,
) -> Vec<f64> {
    let samples: Vec<(usize, f64)> = samples.into_iter().take(len * passes).collect();
    assert_eq!(samples.len(), len * passes, "the run completed {passes} passes");
    let mut best = vec![f64::INFINITY; len];
    for (input, latency) in samples {
        best[input] = best[input].min(latency);
    }
    assert!(best.iter().all(|b| b.is_finite()), "every pool input ran in every pass");
    best
}

/// What [`run_passes`] produced.
pub struct Passes<T> {
    /// Every task's output, in run order.
    pub results: Vec<T>,
    /// Wall-clock seconds of all passes.
    pub wall: f64,
    /// Completed passes.
    pub passes: u64,
}

/// Runs `task` on every pool index, pass after pass, each pass in a seeded
/// [`pass_order`]. Always runs `min_passes` passes; beyond them, starts another pass
/// only while one more pass of the last pass's length still fits in `seconds`, so
/// every run measures whole passes.
pub fn run_passes<T>(
    seed: u64,
    len: usize,
    classes: usize,
    seconds: f64,
    min_passes: usize,
    mut task: impl FnMut(usize) -> T,
) -> Passes<T> {
    let started = Instant::now();
    let mut results = Vec::new();
    let (mut passes, mut last) = (0u64, 0.0);
    while passes < min_passes as u64 || started.elapsed().as_secs_f64() + last <= seconds {
        let pass_started = Instant::now();
        results.extend(pass_order(seed, passes, len, classes).into_iter().map(&mut task));
        last = pass_started.elapsed().as_secs_f64();
        passes += 1;
    }
    Passes { results, wall: started.elapsed().as_secs_f64(), passes }
}
