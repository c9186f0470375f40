//! Host-time benchmark of the Albatross simulator.
//!
//! The simulator has two kinds of "performance": the *modeled* gateway's
//! Mpps, latency and hit rate, and the *host* wall-clock time the simulator
//! spends per simulated packet. This package measures the second one. The
//! modeled values are correctness checks here, never metrics.
//!
//! * [`workloads`] defines the four canonical workloads, their inputs (from
//!   a seed) and their correctness checks.
//! * [`run`] times the real `PodSimulation` / `AzSimulation` entry points
//!   with tracing off and reports the end-to-end metrics, scaled to a
//!   nominal host speed measured by the [`reference`] kernel.
//! * [`replay`] replays a pod workload's packets through each layer's
//!   public functions, recording one [`trace::Span`] per call, and derives
//!   the per-layer metrics from the spans.
//!
//! See `perfbench/README.md` for the metric definitions and the recorded
//! baseline.

pub mod fingerprint;
pub mod reference;
pub mod replay;
pub mod run;
pub mod skew;
pub mod stamp;
pub mod trace;
pub mod workloads;

/// Median of `values` (mean of the two middle values for even lengths).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` (0–1) of `values`.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }
}
