//! The independent output check.
//!
//! Every result is re-evaluated with [`QuditCircuit::unitary`], the reference
//! evaluator that multiplies embedded gate matrices directly and never touches the
//! TNVM, and its Hilbert–Schmidt infidelity against the target is recomputed. A result
//! fails the check when the recomputed infidelity disagrees with the claimed one by
//! more than [`AGREEMENT_TOLERANCE`], or when the claimed success flag disagrees with
//! the recomputed infidelity.

use openqudit::prelude::*;

/// Largest accepted gap between the claimed and the recomputed infidelity.
pub const AGREEMENT_TOLERANCE: f64 = 1e-9;

/// The infidelity below which a result counts as a success (the library's threshold).
pub const SUCCESS_THRESHOLD: f64 = openqudit::optimize::SUCCESS_THRESHOLD;

/// What a program claimed about one result.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    /// The infidelity the program reported.
    pub infidelity: f64,
    /// The success flag the program reported.
    pub success: bool,
}

/// The outcome of checking one result.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The independently recomputed infidelity (`NaN` when the circuit could not be
    /// evaluated).
    pub infidelity: f64,
    /// Whether the recomputed infidelity meets the success threshold.
    pub success: bool,
    /// Why the result failed the check, if it did.
    pub mismatch: Option<String>,
}

/// Re-evaluates `circuit` at `params` and compares the outcome with `claim`.
pub fn check_result(
    circuit: &QuditCircuit,
    params: &[f64],
    target: &Matrix<f64>,
    claim: Claim,
) -> Verdict {
    let unitary = match circuit.unitary::<f64>(params) {
        Ok(u) => u,
        Err(e) => {
            return Verdict {
                infidelity: f64::NAN,
                success: false,
                mismatch: Some(format!("circuit does not evaluate: {e}")),
            }
        }
    };
    let infidelity = hs_infidelity(target, &unitary);
    let success = infidelity < SUCCESS_THRESHOLD;
    let mismatch = if !infidelity.is_finite() || !claim.infidelity.is_finite() {
        Some(format!(
            "non-finite infidelity: claimed {}, recomputed {infidelity}",
            claim.infidelity
        ))
    } else if (infidelity - claim.infidelity).abs() > AGREEMENT_TOLERANCE {
        Some(format!("infidelity claimed {} but recomputed {infidelity}", claim.infidelity))
    } else if success != claim.success {
        Some(format!("success flag {} but recomputed infidelity {infidelity}", claim.success))
    } else {
        None
    };
    Verdict { infidelity, success, mismatch }
}

/// Whether two parameter vectors are bit-for-bit identical.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
