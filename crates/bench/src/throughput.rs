//! The simulated-work counter `repro perf-gate` enforces: simulated device
//! operations (contended-timeline reservations) per vector instruction,
//! over one Conduit run of every workload.
//!
//! The counter grows exactly when a change makes the simulator do more
//! device work per instruction (extra data movement, redundant
//! reservations, duplicated model calls), and every figure's simulated time
//! is built from that work. It is deterministic and identical on every
//! machine, so the gate needs no wall clock and no noise margin beyond its
//! tolerance. Host throughput is measured by the repository benchmark
//! (`BENCHMARK.json`, `perfbench/`), not here.

use conduit::{Policy, RunRequest, Session};
use conduit_types::SsdConfig;
use conduit_workloads::{Scale, Workload};

/// The committed paper-scale value of [`WorkCount::ops_per_instruction`].
/// A change that moves the counter on purpose edits this constant, and the
/// diff shows the old and new value.
pub const BASELINE_OPS_PER_INSTRUCTION: f64 = 2.901635;

/// How far, as a fraction of the baseline, the counter may move in either
/// direction before the gate fails.
pub const TOLERANCE: f64 = 0.15;

/// Instructions and device operations of one fresh Conduit run of every
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkCount {
    /// Vector instructions simulated.
    pub instructions: u64,
    /// Simulated device operations those runs performed.
    pub device_ops: u64,
}

impl WorkCount {
    /// Runs every workload once under Conduit at the scale the paper's
    /// figures use: the count the gate compares with its baseline.
    pub fn paper() -> WorkCount {
        WorkCount::measure(SsdConfig::default(), Scale::new(4, 1))
    }

    /// Runs every workload once under Conduit, each on a fresh device.
    fn measure(cfg: SsdConfig, scale: Scale) -> WorkCount {
        let mut session = Session::builder(cfg).build();
        let requests: Vec<RunRequest> = Workload::ALL
            .iter()
            .map(|w| {
                let program = w.program(scale).expect("generators always succeed");
                let id = session
                    .register(program)
                    .expect("generated programs always validate");
                RunRequest::new(id, Policy::Conduit)
            })
            .collect();
        let outcomes = session
            .submit_batch(&requests)
            .expect("simulation of a generated workload cannot fail");
        WorkCount {
            instructions: outcomes.iter().map(|o| o.summary.instructions as u64).sum(),
            device_ops: outcomes
                .iter()
                .map(|o| o.summary.device_delta.device_ops)
                .sum(),
        }
    }

    /// Device operations per vector instruction.
    pub fn ops_per_instruction(&self) -> f64 {
        self.device_ops as f64 / self.instructions.max(1) as f64
    }
}

/// Compares a measured ops/instruction with [`BASELINE_OPS_PER_INSTRUCTION`].
///
/// # Errors
///
/// Returns the failure message when `measured` lies more than
/// [`TOLERANCE`] above or below the baseline. A drop fails as well as a
/// rise: it usually means device operations (coherence flushes, GC,
/// transfers) silently stopped being issued, which would skew every figure
/// while "improving" throughput.
pub fn check(measured: f64) -> Result<(), String> {
    let baseline = BASELINE_OPS_PER_INSTRUCTION;
    if measured > baseline * (1.0 + TOLERANCE) {
        Err(format!(
            "the simulator performs {:.1}% more work per instruction than the baseline",
            (measured / baseline - 1.0) * 100.0
        ))
    } else if measured < baseline * (1.0 - TOLERANCE) {
        Err(format!(
            "the simulator performs {:.1}% less work per instruction than the baseline; \
             if intentional, update BASELINE_OPS_PER_INSTRUCTION",
            (1.0 - measured / baseline) * 100.0
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_produces_consistent_numbers() {
        let count = WorkCount::measure(SsdConfig::small_for_tests(), Scale::test());
        let instructions: usize = Workload::ALL
            .iter()
            .map(|w| w.program(Scale::test()).unwrap().len())
            .sum();
        assert_eq!(count.instructions, instructions as u64);
        assert!(count.device_ops > 0);
        // Deterministic: a second measurement counts the same work.
        assert_eq!(
            WorkCount::measure(SsdConfig::small_for_tests(), Scale::test()),
            count
        );
    }

    #[test]
    fn gate_fails_just_outside_the_tolerance_band() {
        let baseline = BASELINE_OPS_PER_INSTRUCTION;
        for inside in [
            baseline,
            baseline * (1.0 + TOLERANCE) * (1.0 - 1e-9),
            baseline * (1.0 - TOLERANCE) * (1.0 + 1e-9),
        ] {
            assert_eq!(check(inside), Ok(()), "{inside}");
        }
        let above = check(baseline * (1.0 + TOLERANCE) * (1.0 + 1e-9)).unwrap_err();
        assert!(above.contains("more work"), "{above}");
        let below = check(baseline * (1.0 - TOLERANCE) * (1.0 - 1e-9)).unwrap_err();
        assert!(below.contains("less work"), "{below}");
    }
}
