//! What the three workloads share: the per-iteration result, the output
//! digest and checks, and the interface `main` runs them through.

use std::time::Instant;

use conduit::{RunOutcome, RunSummary};
use conduit_types::Result;

use crate::fidelity::Fidelity;
use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::Digest;

/// Full size is what the benchmark measures; smoke size is for the
/// benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// One timed iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Iter {
    /// Host seconds of each timed part of the iteration, in a fixed order
    /// (see `main::best_rate`).
    pub parts: Vec<f64>,
    /// Simulated vector instructions completed.
    pub instructions: u64,
    pub attempted: u64,
    /// Requests that returned an error or failed an output check.
    pub failed: u64,
    /// Digest of every deterministic simulated output of the iteration.
    pub digest: u64,
}

impl Iter {
    pub fn host_s(&self) -> f64 {
        self.parts.iter().sum()
    }

    pub fn inst_per_s(&self) -> f64 {
        self.instructions as f64 / self.host_s()
    }
}

/// Times each call on its own; returns the outcomes of every call in
/// order (the first error wins) and each call's host seconds.
pub fn timed_parts<T>(
    parts: impl Iterator<Item = T>,
    mut call: impl FnMut(T) -> Result<Vec<RunOutcome>>,
) -> (Result<Vec<RunOutcome>>, Vec<f64>) {
    let mut outcomes = Vec::new();
    let mut seconds = Vec::new();
    let mut first_err = None;
    for part in parts {
        let t = Instant::now();
        let result = call(part);
        seconds.push(t.elapsed().as_secs_f64());
        match result {
            Ok(o) => outcomes.extend(o),
            Err(e) => {
                first_err.get_or_insert(e);
            }
        }
    }
    (first_err.map_or(Ok(outcomes), Err), seconds)
}

/// A benchmark workload. `setup` builds everything and runs one untimed
/// warm-up pass, whose outputs are the reference every later iteration is
/// checked against.
pub trait Scenario: Sized {
    fn setup(size: Size, seed: u64, tracer: &mut Tracer) -> Self;
    /// One timed iteration, with a span around every public call; request
    /// ids start at `first_request`. With [`Tracer::off`] it is an
    /// untraced iteration.
    fn run(&mut self, tracer: &mut Tracer, first_request: u64) -> Iter;
    /// The per-layer metrics, after the traced iterations. Runs the
    /// once-per-run checks (fresh-run split, serial against pooled
    /// submission) and returns their attempted and failed counts.
    fn layers(&mut self, tracer: &mut Tracer, m: &mut Metrics) -> (u64, u64);
    /// The headline numbers behind `paper_error`.
    fn fidelity(&self) -> Fidelity;
    /// Digest of the warm-up pass.
    fn reference_digest(&self) -> u64;
    /// Configuration line: sizes, worker counts.
    fn describe(&self) -> String;
}

/// Digest of every deterministic simulated field of a summary. The
/// parallel-evaluator diagnostics are left out: they depend on thread
/// timing and are excluded from `RunSummary` equality for that reason.
pub fn summary_digest(s: &RunSummary) -> u64 {
    let mut d = Digest::default();
    d.debug(&(&s.workload, s.policy, s.instructions, s.repeats));
    d.debug(&(s.total_time, s.queueing_time, s.service_time));
    d.debug(&(s.total_energy, s.energy_split, s.breakdown));
    d.debug(&(s.offload_mix, s.overhead, s.device_delta));
    d.debug(&s.percentiles);
    latency_digest(&mut d, &s.latency);
    d.value()
}

/// Folds a latency histogram in through its exact moments and a fixed set
/// of quantiles.
pub fn latency_digest(d: &mut Digest, l: &conduit_sim::LatencyStats) {
    d.debug(&(l.len(), l.mean(), l.min(), l.max()));
    for p in [0.5, 0.9, 0.99, 0.999, 0.9999] {
        d.debug(&l.percentile(p));
    }
}

/// Combines per-request digests, in request order.
pub fn combine(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for v in digests {
        d.bytes(&v.to_le_bytes());
    }
    d.value()
}

/// Checks a batch of outcomes against the warm-up's per-request digests.
/// A request fails if it errored, its placements do not add up to its
/// instruction count, or its digest differs from the reference.
pub fn check_batch(outcomes: Result<Vec<RunOutcome>>, reference: &[u64], parts: Vec<f64>) -> Iter {
    let n = reference.len() as u64;
    let Ok(outcomes) = outcomes else {
        return Iter {
            parts,
            attempted: n,
            failed: n,
            ..Iter::default()
        };
    };
    let mut iter = Iter {
        parts,
        attempted: n,
        ..Iter::default()
    };
    let mut digests = Vec::with_capacity(outcomes.len());
    for (o, &want) in outcomes.iter().zip(reference) {
        let digest = summary_digest(&o.summary);
        let mix_ok = o.summary.offload_mix.total() == o.summary.instructions as u64;
        iter.failed += u64::from(!mix_ok || digest != want);
        iter.instructions += o.summary.instructions as u64;
        digests.push(digest);
    }
    iter.failed += n.saturating_sub(outcomes.len() as u64);
    iter.digest = combine(&digests);
    iter
}

/// Worker threads available to the benchmark.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
