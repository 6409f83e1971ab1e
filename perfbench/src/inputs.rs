//! Workload inputs.
//!
//! The instantiation and partitioned workloads run pinned pools (see `pool`), in an
//! order `--seed` sets. The serve workload draws every request from the seed: input
//! `k` takes its target and engine seed from `derive(seed, stream, k)`, so it does not
//! depend on which client sent it or on how many requests ran before the deadline.

use openqudit::circuit::gates;
use openqudit::prelude::*;
use qudit_bench::SynthWorkload;

/// SplitMix64 finaliser.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A well-mixed 64-bit value for item `index` of input stream `stream` under `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ splitmix(index)))
}

/// Input streams; each kind of input draws from its own.
pub mod stream {
    /// Target parameter draws.
    pub const TARGET: u64 = 1;
    /// Instantiation / synthesis engine seeds.
    pub const ENGINE: u64 = 2;
    /// Visiting order of a pinned pool.
    pub const ORDER: u64 = 4;
}

/// A gate constructor: builds the gate from its QGL source on every call.
pub type GateCtor = fn() -> UnitaryExpression;

/// The gates of the Fig. 5 ladders.
pub const FIG5_GATES: [(&str, GateCtor); 5] = [
    ("U3", gates::u3),
    ("CNOT", gates::cnot),
    ("QutritU", gates::qutrit_u),
    ("P3", gates::qutrit_phase),
    ("CSUM", gates::csum),
];

/// The gates of the qubit workloads (ladder, synthesis templates).
pub const QUBIT_GATES: [(&str, GateCtor); 2] = [("U3", gates::u3), ("CNOT", gates::cnot)];

/// One named circuit of an instantiation workload.
pub struct Row {
    /// Stable short name used in metric names (`row.<name>.*`).
    pub name: &'static str,
    /// The ansatz.
    pub circuit: QuditCircuit,
}

/// The Fig. 5 rows: each `fig5_workloads()` name and the short name the metrics use.
pub const FIG5_ROWS: [(&str, &str); 5] = [
    ("2-qubit shallow", "2q-shallow"),
    ("3-qubit shallow", "3q-shallow"),
    ("3-qubit deep", "3q-deep"),
    ("2-qutrit shallow", "2qt-shallow"),
    ("3-qutrit shallow", "3qt-shallow"),
];

/// The five Fig. 5 ladders of `qudit_bench::fig5_workloads()` (the rows of
/// `report_instantiation`), under their short names.
///
/// # Panics
///
/// Panics when `fig5_workloads()` no longer matches [`FIG5_ROWS`], so that a change
/// to the paper workloads cannot silently drop out of the metric names.
pub fn fig5_rows() -> Vec<Row> {
    let rows: Vec<Row> = qudit_bench::fig5_workloads()
        .into_iter()
        .zip(FIG5_ROWS)
        .map(|(w, (name, short))| {
            assert_eq!(w.name, name, "fig5_workloads() changed; update FIG5_ROWS");
            Row { name: short, circuit: w.circuit }
        })
        .collect();
    assert_eq!(rows.len(), FIG5_ROWS.len(), "fig5_workloads() changed; update FIG5_ROWS");
    rows
}

/// The 6-qubit (dimension 64) ladder with 4 entangling layers, 42 parameters.
pub fn wide_rows() -> Vec<Row> {
    vec![Row {
        name: "6q-ladder",
        circuit: builders::pqc_qubit_ladder(6, 4).expect("valid ladder"),
    }]
}

/// Pool tasks per row of an instantiation workload.
pub const POOL_PER_ROW: usize = 5;

/// First target seed of the pinned instantiation pools.
pub const INSTANTIATION_POOL_SEED: u64 = 1000;

/// One instantiation task: the row it runs on, its target, and its configuration.
pub struct InstantiationTask {
    /// Index into the workload's rows.
    pub row: usize,
    /// A reachable target of the row's circuit.
    pub target: Matrix<f64>,
    /// `starts: 8, threads: 1`, every other field a library default but the seed.
    pub config: InstantiateConfig,
}

/// The pinned pool of an instantiation workload: `per_row` tasks per row, taken
/// round-robin by row. Task `j` targets `reachable_target` at seed
/// [`INSTANTIATION_POOL_SEED`]` + j` and runs its starts from engine seed `j`.
pub fn instantiation_pool(rows: &[Row], per_row: usize) -> Vec<InstantiationTask> {
    (0..rows.len() * per_row)
        .map(|j| {
            let row = j % rows.len();
            let target = reachable_target(&rows[row].circuit, INSTANTIATION_POOL_SEED + j as u64);
            let config =
                InstantiateConfig { starts: 8, threads: 1, seed: j as u64, ..Default::default() };
            InstantiationTask { row, target, config }
        })
        .collect()
}

/// The row of `qudit_bench::synthesis_workloads()` named `name`.
///
/// # Panics
///
/// Panics when no row has that name.
pub fn synthesis_row(name: &str) -> SynthWorkload {
    qudit_bench::synthesis_workloads()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("synthesis_workloads() has no row {name:?}"))
}

/// The `synthesis_workloads()` row behind the partitioned workload.
pub const PARTITIONED_ROW: &str = "4-qubit partitioned reachable";

/// The target seed of the [`PARTITIONED_ROW`] row itself.
pub const PARTITIONED_ROW_SEED: u64 = 53;

/// The generating template of [`PARTITIONED_ROW`]: two rounds of `(0,1) (2,3) (1,2)`
/// over the `[0,1]|[2,3]` cut. `synthesis_workloads()` keeps only the target it draws
/// from this template, so the benchmark rebuilds the template to draw more; a test
/// checks that it reproduces the row's target at [`PARTITIONED_ROW_SEED`].
pub fn partitioned_template(row: &SynthWorkload) -> QuditCircuit {
    let round = [(0usize, 1usize), (2, 3), (1, 2)];
    let blocks: Vec<(usize, usize)> = round.iter().cycle().take(6).copied().collect();
    builders::pqc_template(&row.radices, &blocks).expect("valid template")
}

/// Target seeds of the partitioned pool: the last four of the eight targets behind
/// the committed 4-qubit `report_synthesis` row (seeds 53–60). On seed 60, as on 55,
/// refine deletes four blocks and the compile takes about 5× longer, so the pool
/// keeps the eight's 1-in-4 share of the slow path while a pass takes only ~8 s.
pub const PARTITIONED_POOL_SEEDS: std::ops::RangeInclusive<u64> = 57..=60;

/// The partitioned pool: reachable targets of [`partitioned_template`].
pub fn partitioned_pool(template: &QuditCircuit) -> Vec<Matrix<f64>> {
    PARTITIONED_POOL_SEEDS.map(|s| reachable_target(template, s)).collect()
}

/// The `synthesis_workloads()` row whose named gate the serve workload asks for.
pub const SERVE_GATE_ROW: &str = "2-qubit cnot";

/// The registry name of the [`SERVE_GATE_ROW`] target.
pub const SERVE_GATE: &str = "CNOT";

/// The `synthesis_workloads()` row whose template the serve workload draws explicit
/// matrices from.
pub const SERVE_MATRIX_ROW: &str = "2-qubit reachable depth-2";

/// The target seed of the [`SERVE_MATRIX_ROW`] row itself.
pub const SERVE_MATRIX_ROW_SEED: u64 = 41;

/// The depth-2 template behind [`SERVE_MATRIX_ROW`]; a test checks that it
/// reproduces the row's target at [`SERVE_MATRIX_ROW_SEED`].
pub fn serve_template() -> QuditCircuit {
    builders::pqc_template(&[2, 2], &[(0, 1), (0, 1)]).expect("valid template")
}

/// A serve request: what the client sends and the unitary it expects back.
pub struct ServeRequest {
    /// The request body.
    pub body: String,
    /// The target unitary, for the independent check.
    pub target: Matrix<f64>,
}

/// Serve request for input index `index`. The mix is the two 2-qubit rows of
/// `synthesis_workloads()` in equal shares, as that suite weighs them: even indices
/// ask for the named gate of [`SERVE_GATE_ROW`], odd ones for an explicit reachable
/// matrix of the [`SERVE_MATRIX_ROW`] template, drawn from the seed. Every body
/// carries its own engine seed.
pub fn serve_request(template: &QuditCircuit, seed: u64, index: u64) -> ServeRequest {
    use crate::client::{compile_body, Target};
    let engine_seed = derive(seed, stream::ENGINE, index) % 1000;
    let (target, matrix) = if index.is_multiple_of(2) {
        let m = gates::cnot().to_matrix::<f64>(&[]).expect("constant gate");
        (Target::Gate(SERVE_GATE), m)
    } else {
        let m = reachable_target(template, derive(seed, stream::TARGET, index));
        (Target::Matrix(m.clone()), m)
    };
    ServeRequest { body: compile_body(&target, engine_seed), target: matrix }
}
