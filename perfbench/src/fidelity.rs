//! Distance of the simulated headline numbers from the paper's.
//!
//! The five reference values are the ones the repository's own
//! `Harness::headline` and `Harness::overheads` print next to their
//! measurements, computed the same way from public `RunSummary` values.
//! They are the only reference results the repository holds; the model is
//! otherwise unvalidated.

use conduit::{gmean, Policy, RunRequest, RunSummary, Session};
use conduit_types::SsdConfig;
use conduit_workloads::{Scale, Workload};

/// `(metric suffix, paper value)` of each term.
pub const PAPER: [(&str, f64); 5] = [
    // Conduit gmean speedup over the host CPU.
    ("speedup_vs_cpu", 4.2),
    // Conduit gmean speedup over DM-Offloading.
    ("speedup_vs_dm", 1.8),
    // Conduit energy as a fraction of DM-Offloading's (46% reduction).
    ("energy_vs_dm", 0.54),
    // Conduit's fraction of the Ideal policy's speed.
    ("frac_of_ideal", 0.62),
    // Mean offloader overhead per instruction, microseconds.
    ("overhead_us", 3.77),
];

/// The four policies the headline compares, per workload.
pub const HEADLINE_POLICIES: [Policy; 4] = [
    Policy::HostCpu,
    Policy::DmOffloading,
    Policy::Conduit,
    Policy::Ideal,
];

/// The five measured headline values, in [`PAPER`] order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fidelity {
    pub measured: [f64; 5],
}

impl Fidelity {
    /// Computes the headline from one summary per (workload, headline
    /// policy) pair.
    pub fn from_summaries<'a>(summary: impl Fn(Workload, Policy) -> &'a RunSummary) -> Self {
        let mut vs_cpu = Vec::new();
        let mut vs_dm = Vec::new();
        let mut energy = Vec::new();
        let mut of_ideal = Vec::new();
        let mut overhead_us = 0.0;
        for w in Workload::ALL {
            let cpu = summary(w, Policy::HostCpu);
            let dm = summary(w, Policy::DmOffloading);
            let conduit = summary(w, Policy::Conduit);
            let ideal = summary(w, Policy::Ideal);
            vs_cpu.push(conduit.speedup_over(cpu));
            vs_dm.push(conduit.speedup_over(dm));
            energy.push(conduit.energy_vs(dm));
            of_ideal.push(ideal.total_time.as_ns() / conduit.total_time.as_ns());
            overhead_us += conduit.overhead.mean().as_us();
        }
        Fidelity {
            measured: [
                gmean(&vs_cpu),
                gmean(&vs_dm),
                gmean(&energy),
                gmean(&of_ideal),
                overhead_us / Workload::ALL.len() as f64,
            ],
        }
    }

    /// `|ln(measured / paper)|` per term.
    pub fn terms(&self) -> [f64; 5] {
        let mut out = [0.0; 5];
        for (i, t) in out.iter_mut().enumerate() {
            *t = (self.measured[i] / PAPER[i].1).ln().abs();
        }
        out
    }

    /// Mean of the five log errors: 0 when every number matches the paper.
    pub fn paper_error(&self) -> f64 {
        self.terms().iter().sum::<f64>() / PAPER.len() as f64
    }
}

/// Runs the headline pairs at paper scale on fresh devices. Workloads
/// whose own requests do not cover the headline use this to report the
/// model's error.
pub fn reference() -> Fidelity {
    let mut session = Session::new(SsdConfig::default());
    let mut requests = Vec::new();
    let mut pairs = Vec::new();
    for w in Workload::ALL {
        let program = w
            .program(Scale::new(4, 1))
            .expect("generators always succeed");
        let id = session
            .register(program)
            .expect("generated programs validate");
        for p in HEADLINE_POLICIES {
            requests.push(RunRequest::new(id, p));
            pairs.push((w, p));
        }
    }
    let outcomes = session
        .submit_batch(&requests)
        .expect("fresh runs of generated programs succeed");
    Fidelity::from_summaries(|w, p| {
        let i = pairs
            .iter()
            .position(|&x| x == (w, p))
            .expect("headline pair");
        &outcomes[i].summary
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_error_is_zero_when_measured_equals_paper() {
        let f = Fidelity {
            measured: PAPER.map(|(_, v)| v),
        };
        assert_eq!(f.paper_error(), 0.0);
        assert!(f.terms().iter().all(|&t| t == 0.0));
    }

    #[test]
    fn paper_error_is_symmetric_in_log_space() {
        let mut f = Fidelity {
            measured: PAPER.map(|(_, v)| v),
        };
        f.measured[0] = 4.2 * std::f64::consts::E;
        assert!((f.paper_error() - 0.2).abs() < 1e-12);
        f.measured[0] = 4.2 / std::f64::consts::E;
        assert!((f.paper_error() - 0.2).abs() < 1e-12);
    }
}
