//! Order statistics for latency samples.

/// A percentile is reported as supported only when at least this many samples lie
/// strictly above it; with fewer, one slow task decides the value.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// The 1-based nearest rank of quantile `q` in `n` samples: `ceil(q·n)`, at least 1.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` (in `[0, 1]`) of `samples`.
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    sorted(samples)[nearest_rank(samples.len(), q) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank quantile `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// The median (mean of the two middle samples for an even count).
///
/// # Panics
///
/// Panics when `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Task latency percentiles and throughput of a run's timed phase.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Median task latency, seconds.
    pub p50: f64,
    /// 90th-percentile task latency, seconds.
    pub p90: f64,
    /// Latency samples the percentiles summarize.
    pub samples: usize,
    /// Fewest samples beyond the 90th percentile in any set it was taken over.
    pub beyond_p90: usize,
    /// Completed tasks per second.
    pub tasks_per_s: f64,
    /// Completed tasks the rate counts.
    pub tasks: usize,
}

impl LatencySummary {
    /// Nearest-rank percentiles of `latencies`, and `completed` tasks over `wall`
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics when `latencies` is empty.
    pub fn of(latencies: &[f64], completed: usize, wall: f64) -> Self {
        LatencySummary {
            p50: percentile(latencies, 0.5),
            p90: percentile(latencies, 0.9),
            samples: latencies.len(),
            beyond_p90: samples_beyond(latencies.len(), 0.9),
            tasks_per_s: completed as f64 / wall,
            tasks: completed,
        }
    }

    /// The line that says whether `task_p90_s` is supported.
    pub fn p90_note(&self) -> String {
        let support =
            if self.beyond_p90 >= MIN_SAMPLES_BEYOND { "supported" } else { "indicative only" };
        format!("task_p90_s: {} samples beyond it, {support}", self.beyond_p90)
    }
}

/// A [`LatencySummary`] taken in windows: the timed phase is cut into whole windows
/// of `window` seconds by completion time, each window gets its own percentiles and
/// rate, and the summary reports their medians. Contention from other tenants of a
/// shared host comes in phases of seconds; a phase that covers fewer than half of
/// the windows does not move the medians. Returns the summary and the number of
/// windows.
///
/// # Panics
///
/// Panics when `wall` holds no whole window or a window holds no sample.
pub fn window_medians(samples: &[(f64, f64)], window: f64, wall: f64) -> (LatencySummary, usize) {
    let windows = (wall / window).floor() as usize;
    assert!(windows > 0, "a {wall} s phase holds no {window} s window");
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for &(done_at, latency) in samples {
        let w = (done_at / window).floor() as usize;
        if w < windows {
            latencies[w].push(latency);
        }
    }
    let summaries: Vec<LatencySummary> =
        latencies.iter().map(|l| LatencySummary::of(l, l.len(), window)).collect();
    let med = |f: fn(&LatencySummary) -> f64| median(&summaries.iter().map(f).collect::<Vec<_>>());
    let summary = LatencySummary {
        p50: med(|s| s.p50),
        p90: med(|s| s.p90),
        samples: summaries.iter().map(|s| s.samples).sum(),
        beyond_p90: summaries.iter().map(|s| s.beyond_p90).min().unwrap_or(0),
        tasks_per_s: med(|s| s.tasks_per_s),
        tasks: summaries.iter().map(|s| s.tasks).sum(),
    };
    (summary, windows)
}
