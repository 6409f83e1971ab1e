//! The OpenQudit benchmark: workloads run through the public API under library
//! defaults, every output re-checked independently, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run. `BENCHMARK.json`
//! lists two of the four workloads (`report::WORKLOADS`); see `README.md`.

pub mod check;
pub mod client;
pub mod env;
pub mod inputs;
pub mod instantiation;
pub mod layers;
pub mod partitioned;
pub mod pool;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod timed;
