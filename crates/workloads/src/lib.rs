//! # conduit-workloads
//!
//! The six data-intensive workloads of the Conduit evaluation (Table 3 of
//! the paper), expressed as loop kernels for the compile-time vectorizer:
//!
//! | Workload | Vectorizable % | Avg. reuse | low / medium / high ops |
//! |---|---|---|---|
//! | AES-256 | 65% | 15.2 | 87% / 13% / 0% |
//! | XOR filter | 16% | 2.0 | 1% / 98% / 1% |
//! | heat-3d | 95% | 16 | 0% / 60% / 40% |
//! | jacobi-1d | 95% | 3 | 0% / 67% / 33% |
//! | LLaMA2 inference (INT8) | 70% | 1.8 | 0% / 53% / 47% |
//! | LLM training (INT8) | 60% | 5.2 | 0% / 88% / 12% |
//!
//! Each generator builds a synthetic but structurally faithful kernel (same
//! operation mix, reuse behaviour and vectorizable fraction) at a
//! configurable [`Scale`], runs it through `conduit-vectorizer`, and returns
//! the resulting [`VectorProgram`]. [`characterize`] recomputes the Table 3
//! columns from a program so the benchmark harness can print paper-vs-
//! measured values.
//!
//! ## Example
//!
//! ```
//! use conduit_workloads::{characterize, Scale, Workload};
//!
//! let program = Workload::Jacobi1d.program(Scale::test())?;
//! let profile = characterize(&program);
//! assert!(profile.vectorizable_pct > 0.90);
//! assert!(profile.high_pct > 0.2 && profile.high_pct < 0.45);
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

mod aes;
mod llm;
mod profile;
mod stencil;
mod xor_filter;

pub use profile::{characterize, WorkloadProfile};

use conduit_types::{Result, VectorProgram};
use conduit_vectorizer::Kernel;

/// Controls how much data and how many iterations a workload generator
/// produces.
///
/// `Scale::test()` keeps programs small enough for unit tests;
/// `Scale::paper()` is the scale the paper's figures are regenerated at
/// (17,679 vector instructions over the six workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scale {
    /// Multiplier on the number of data elements processed.
    pub data: u32,
    /// Multiplier on the number of iterations / time steps / layers.
    pub steps: u32,
}

impl Scale {
    /// A scale suitable for fast unit/integration tests.
    pub fn test() -> Self {
        Scale { data: 1, steps: 1 }
    }

    /// The scale the benchmark harness regenerates the paper's figures at,
    /// which the perf gate and the paper-scale golden outputs also use.
    pub fn paper() -> Self {
        Scale { data: 4, steps: 1 }
    }

    /// A custom scale.
    pub fn new(data: u32, steps: u32) -> Self {
        Scale {
            data: data.max(1),
            steps: steps.max(1),
        }
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::test()
    }
}

/// The six evaluated workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// AES-256 encryption (CHStone-style), bitwise-heavy with high reuse.
    Aes,
    /// XOR-filter membership structure construction + queries.
    XorFilter,
    /// heat-3d stencil (Polybench).
    Heat3d,
    /// jacobi-1d stencil (Polybench).
    Jacobi1d,
    /// LLaMA2-style INT8 transformer inference.
    LlamaInference,
    /// LLaMA2-style INT8 training step (forward + backward + update).
    LlmTraining,
}

impl Workload {
    /// All workloads in the order the paper's figures list them.
    pub const ALL: [Workload; 6] = [
        Workload::Aes,
        Workload::XorFilter,
        Workload::Heat3d,
        Workload::Jacobi1d,
        Workload::LlamaInference,
        Workload::LlmTraining,
    ];

    /// Display name matching the paper's figure axes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Aes => "AES",
            Workload::XorFilter => "XOR Filter",
            Workload::Heat3d => "heat-3d",
            Workload::Jacobi1d => "jacobi-1d",
            Workload::LlamaInference => "LlaMA2 Inference",
            Workload::LlmTraining => "LLM Training",
        }
    }

    /// The paper's Table 3 reference characteristics for this workload:
    /// `(vectorizable fraction, average reuse, low, medium, high)`.
    pub fn paper_characteristics(self) -> (f64, f64, f64, f64, f64) {
        match self {
            Workload::Aes => (0.65, 15.2, 0.87, 0.13, 0.0),
            Workload::XorFilter => (0.16, 2.0, 0.01, 0.98, 0.01),
            Workload::Heat3d => (0.95, 16.0, 0.0, 0.60, 0.40),
            Workload::Jacobi1d => (0.95, 3.0, 0.0, 0.67, 0.33),
            Workload::LlamaInference => (0.70, 1.8, 0.0, 0.53, 0.47),
            Workload::LlmTraining => (0.60, 5.2, 0.0, 0.88, 0.12),
        }
    }

    /// Builds the scalar loop kernel for this workload.
    pub fn kernel(self, scale: Scale) -> Kernel {
        match self {
            Workload::Aes => aes::kernel(scale),
            Workload::XorFilter => xor_filter::kernel(scale),
            Workload::Heat3d => stencil::heat3d_kernel(scale),
            Workload::Jacobi1d => stencil::jacobi1d_kernel(scale),
            Workload::LlamaInference => llm::inference_kernel(scale),
            Workload::LlmTraining => llm::training_kernel(scale),
        }
    }

    /// Builds the kernel and runs it through the compile-time vectorizer.
    ///
    /// # Errors
    ///
    /// Propagates vectorizer errors (which indicate a bug in a generator).
    pub fn program(self, scale: Scale) -> Result<VectorProgram> {
        let kernel = self.kernel(scale);
        let out = conduit_vectorizer::Vectorizer::default().vectorize(&kernel)?;
        Ok(out.program)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_produces_a_valid_program() {
        for w in Workload::ALL {
            let program = w.program(Scale::test()).unwrap();
            assert!(!program.is_empty(), "{w} produced an empty program");
            assert!(
                program.validate().is_ok(),
                "{w} produced an invalid program"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names.len(), Workload::ALL.len());
        assert_eq!(Workload::Heat3d.to_string(), "heat-3d");
    }

    #[test]
    fn paper_characteristics_fractions_sum_to_one() {
        for w in Workload::ALL {
            let (_, _, low, med, high) = w.paper_characteristics();
            assert!((low + med + high - 1.0).abs() < 1e-6, "{w}");
        }
    }

    #[test]
    fn larger_scales_produce_more_work() {
        for w in [Workload::Heat3d, Workload::LlamaInference] {
            let small = w.program(Scale::test()).unwrap();
            let large = w.program(Scale::new(2, 2)).unwrap();
            assert!(large.len() > small.len(), "{w}");
        }
    }

    #[test]
    fn measured_characteristics_track_table3() {
        for w in Workload::ALL {
            let program = w.program(Scale::test()).unwrap();
            let p = characterize(&program);
            let (vec_pct, reuse, low, med, high) = w.paper_characteristics();
            assert!(
                (p.vectorizable_pct - vec_pct).abs() < 0.20,
                "{w}: vectorizable {:.2} vs paper {vec_pct:.2}",
                p.vectorizable_pct
            );
            assert!(
                (p.low_pct - low).abs() < 0.20
                    && (p.med_pct - med).abs() < 0.20
                    && (p.high_pct - high).abs() < 0.20,
                "{w}: mix {:.2}/{:.2}/{:.2} vs paper {low:.2}/{med:.2}/{high:.2}",
                p.low_pct,
                p.med_pct,
                p.high_pct
            );
            // Reuse should at least be ordered the same way (high-reuse
            // workloads measure high, streaming workloads measure low).
            if reuse >= 10.0 {
                assert!(p.avg_reuse > 4.0, "{w}: reuse {:.2}", p.avg_reuse);
            } else {
                assert!(p.avg_reuse < 10.0, "{w}: reuse {:.2}", p.avg_reuse);
            }
        }
    }
}
