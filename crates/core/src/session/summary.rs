//! What a run returns: the always-cheap [`RunSummary`] and the opt-in
//! [`RunArtifacts`].

use conduit_sim::{CostBreakdown, DeviceDelta, LatencyStats};
use conduit_types::{Duration, Energy};

use crate::policy::Policy;
use crate::report::{EnergySummary, OffloadMix, OverheadReport, TimelineEntry};

/// The always-collected, constant-memory result of a run: everything the
/// figure pipeline and a serving stack's metrics need, and nothing that
/// grows with program length.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Workload (vector program) name.
    pub workload: String,
    /// The policy that was used.
    pub policy: Policy,
    /// Number of vector instructions executed.
    pub instructions: usize,
    /// How many times the program was simulated: always 1, since a request
    /// is one run.
    pub repeats: u32,
    /// End-to-end time of the run as the submitter saw it:
    /// [`RunSummary::queueing_time`] + [`RunSummary::service_time`].
    pub total_time: Duration,
    /// Time the request spent waiting in its device's FIFO lane between its
    /// **arrival** ([`RunRequest::arriving_at`](crate::RunRequest::arriving_at);
    /// by default the instant the batch was submitted) and the issue of its
    /// first instruction, measured on the device's stream clock. Always zero
    /// for fresh-device runs and for warm requests that arrived after their
    /// lane drained.
    pub queueing_time: Duration,
    /// The run's own execution time: from the instant its first instruction
    /// issued (the device's stream clock) to its last completion.
    pub service_time: Duration,
    /// Total energy of one run.
    pub total_energy: Energy,
    /// Energy split into data movement and computation: always `Some`.
    pub energy_split: Option<EnergySummary>,
    /// Where the execution time went.
    pub breakdown: CostBreakdown,
    /// Instruction placement counts.
    pub offload_mix: OffloadMix,
    /// Histogram of per-instruction end-to-end latencies (constant memory;
    /// query any quantile via [`LatencyStats::percentile`]).
    pub latency: LatencyStats,
    /// The [`DEFAULT_PERCENTILES`](crate::DEFAULT_PERCENTILES) quantiles of
    /// [`RunSummary::latency`] as `(p, latency)` pairs, in that order; any
    /// other quantile comes from [`RunSummary::percentile`].
    pub percentiles: Vec<(f64, Duration)>,
    /// Offloader overhead statistics.
    pub overhead: OverheadReport,
    /// The device-side work this run performed (GC invocations, pages
    /// migrated, coherence syncs, wear spread, …): on a fresh device the
    /// run's absolute footprint, on a warm device the *additional* aging it
    /// caused on top of what earlier requests left behind, with its one
    /// lane request.
    pub device_delta: DeviceDelta,
}

impl RunSummary {
    /// Speedup of this run relative to `baseline` (>1 means this run is
    /// faster).
    pub fn speedup_over(&self, baseline: &RunSummary) -> f64 {
        let own = self.total_time.as_ns();
        if own == 0.0 {
            return f64::INFINITY;
        }
        baseline.total_time.as_ns() / own
    }

    /// This run's energy as a fraction of `baseline`'s (<1 means this run
    /// uses less energy).
    pub fn energy_vs(&self, baseline: &RunSummary) -> f64 {
        let base = baseline.total_energy.as_nj();
        if base == 0.0 {
            return 0.0;
        }
        self.total_energy.as_nj() / base
    }

    /// The `p`-quantile per-instruction latency from the histogram (any
    /// quantile, not just the requested set).
    pub fn percentile(&self, p: f64) -> Duration {
        self.latency.percentile(p)
    }
}

/// Opt-in bulky outputs of a run — everything that grows with program
/// length. Requested via [`RunRequest::with_timeline`](crate::RunRequest::with_timeline).
#[derive(Debug, Clone, PartialEq)]
pub struct RunArtifacts {
    /// The full per-instruction trace: instruction → execution site with
    /// dispatch/completion times (Figure 10).
    pub timeline: Vec<TimelineEntry>,
}

/// A run's summary plus its optional artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The cheap, always-present summary.
    pub summary: RunSummary,
    /// Bulky opt-in outputs; `None` unless the request asked for them.
    pub artifacts: Option<RunArtifacts>,
}
