//! `setup_s`: repeated cold set-ups.
//!
//! Set-up takes a fraction of a second, so the speed of the machine at one moment
//! decides a sample. A run therefore sets up [`SAMPLES`] times and reports the
//! median. The first set-up builds the workload's state; the others run after the
//! timed phase, once `peak_rss_mib` has been read, so the memory they leave behind
//! does not count toward the workload's peak.

use std::time::Duration;

use crate::stats::median;

/// Cold set-ups per run.
pub const SAMPLES: usize = 9;

/// Runs `SAMPLES - 1` more cold set-ups, discarding their state, and returns the
/// median of their times and `first`, the time of the set-up that built the
/// workload.
pub fn median_with_more(first: Duration, mut setup: impl FnMut() -> Duration) -> f64 {
    let mut samples = vec![first.as_secs_f64()];
    samples.extend((1..SAMPLES).map(|_| setup().as_secs_f64()));
    median(&samples)
}
