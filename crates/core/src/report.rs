//! Run reports: everything the benchmark harness needs to regenerate the
//! paper's figures.

use conduit_sim::{CostBreakdown, LatencyStats};
use conduit_types::{Duration, Energy, ExecutionSite, InstId, OpType, Resource, SimTime};

use crate::policy::Policy;

/// Energy totals split into data movement and computation (Figure 7(b)).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergySummary {
    /// Energy spent moving data (PCIe, flash channels, DRAM bus, relocation).
    pub data_movement: Energy,
    /// Energy spent computing (on any execution site).
    pub compute: Energy,
}

impl EnergySummary {
    /// Total energy.
    pub fn total(&self) -> Energy {
        self.data_movement + self.compute
    }

    /// Fraction of the total that is data movement (0 when empty).
    pub fn data_movement_fraction(&self) -> f64 {
        let total = self.total().as_nj();
        if total == 0.0 {
            0.0
        } else {
            self.data_movement.as_nj() / total
        }
    }
}

/// How many instructions each execution site received (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OffloadMix {
    /// Instructions executed on the SSD controller cores.
    pub isp: u64,
    /// Instructions executed in SSD DRAM.
    pub pud: u64,
    /// Instructions executed in the flash chips.
    pub ifp: u64,
    /// Instructions executed on the host (OSP baselines only).
    pub host: u64,
}

impl OffloadMix {
    /// Records one placement decision.
    pub fn record(&mut self, site: ExecutionSite) {
        match site {
            ExecutionSite::HostCpu | ExecutionSite::HostGpu => self.host += 1,
            ExecutionSite::Ssd(Resource::Isp) => self.isp += 1,
            ExecutionSite::Ssd(Resource::PudSsd) => self.pud += 1,
            ExecutionSite::Ssd(Resource::Ifp) => self.ifp += 1,
        }
    }

    /// Total placements recorded.
    pub fn total(&self) -> u64 {
        self.isp + self.pud + self.ifp + self.host
    }

    /// Fractions `(isp, pud, ifp, host)`; all zero when empty.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let t = t as f64;
        (
            self.isp as f64 / t,
            self.pud as f64 / t,
            self.ifp as f64 / t,
            self.host as f64 / t,
        )
    }
}

/// One entry of the instruction → resource timeline (Figure 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineEntry {
    /// The instruction.
    pub inst: InstId,
    /// Its operation type.
    pub op: OpType,
    /// Where it executed.
    pub site: ExecutionSite,
    /// When it was dispatched.
    pub dispatched: SimTime,
    /// When it completed.
    pub completed: SimTime,
}

/// Offloader overhead statistics observed during a run (§4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverheadReport {
    /// Instructions that paid the offloader overhead.
    pub count: u64,
    /// Total overhead time.
    pub total: Duration,
    /// Worst single-instruction overhead.
    pub max: Duration,
}

impl OverheadReport {
    /// Records one instruction's overhead.
    pub fn record(&mut self, overhead: Duration) {
        self.count += 1;
        self.total += overhead;
        self.max = self.max.max(overhead);
    }

    /// Mean per-instruction overhead (zero when nothing was recorded).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count
        }
    }
}

/// The result of executing one workload under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Workload (vector program) name.
    pub workload: String,
    /// The policy that was used.
    pub policy: Policy,
    /// Number of vector instructions executed.
    pub instructions: usize,
    /// End-to-end execution time.
    pub total_time: Duration,
    /// Energy totals.
    pub energy: EnergySummary,
    /// Where the execution time went.
    pub breakdown: CostBreakdown,
    /// Instruction placement counts.
    pub offload_mix: OffloadMix,
    /// Per-instruction end-to-end latencies.
    pub latency: LatencyStats,
    /// Instruction → resource timeline (empty if not recorded).
    pub timeline: Vec<TimelineEntry>,
    /// Offloader overhead statistics.
    pub overhead: OverheadReport,
}

/// Geometric mean of a set of strictly positive values (used for the GMEAN
/// columns of Figures 5 and 7). Returns 0 for an empty input.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offload_mix_fractions() {
        let mut mix = OffloadMix::default();
        mix.record(ExecutionSite::Ssd(Resource::Ifp));
        mix.record(ExecutionSite::Ssd(Resource::Ifp));
        mix.record(ExecutionSite::Ssd(Resource::PudSsd));
        mix.record(ExecutionSite::Ssd(Resource::Isp));
        mix.record(ExecutionSite::HostCpu);
        assert_eq!(mix.total(), 5);
        let (isp, pud, ifp, host) = mix.fractions();
        assert!((ifp - 0.4).abs() < 1e-9);
        assert!((pud - 0.2).abs() < 1e-9);
        assert!((isp - 0.2).abs() < 1e-9);
        assert!((host - 0.2).abs() < 1e-9);
        assert_eq!(OffloadMix::default().fractions(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn energy_summary_fraction() {
        let s = EnergySummary {
            data_movement: Energy::from_nj(30.0),
            compute: Energy::from_nj(10.0),
        };
        assert_eq!(s.total(), Energy::from_nj(40.0));
        assert!((s.data_movement_fraction() - 0.75).abs() < 1e-9);
        assert_eq!(EnergySummary::default().data_movement_fraction(), 0.0);
    }

    #[test]
    fn overhead_report_mean_and_max() {
        let mut o = OverheadReport::default();
        o.record(Duration::from_us(2.0));
        o.record(Duration::from_us(4.0));
        assert_eq!(o.mean(), Duration::from_us(3.0));
        assert_eq!(o.max, Duration::from_us(4.0));
        assert_eq!(OverheadReport::default().mean(), Duration::ZERO);
    }

    #[test]
    fn gmean_matches_hand_computation() {
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(gmean(&[]), 0.0);
    }
}
