//! # conduit-bench
//!
//! Benchmark harness that regenerates every table and figure of the Conduit
//! evaluation.
//!
//! The [`Harness`] drives a [`conduit::Session`]: every workload is
//! vectorized once and registered in the session's program registry, each
//! (workload, policy) pair is submitted once and its [`conduit::RunOutcome`]
//! cached, and the `figN`/`tableN` methods format the same rows/series the
//! paper plots. The `repro` binary
//! (`cargo run -p conduit-bench --bin repro -- <figure>`) prints them, and
//! its `perf-gate` target checks the simulated-work counter in
//! [`throughput`]. Host throughput is measured by the repository benchmark
//! (`perfbench/`), not by this crate.
//!
//! Because every figure run uses a **fresh** [`conduit_sim::SsdDevice`],
//! runs of different (workload, policy) pairs are completely independent;
//! the session therefore fans missing pairs out across all CPU cores by
//! default, with results bit-identical to the serial path (see
//! [`conduit::Session::submit_batch`]). The `repro warm-pool` target
//! ([`warm`]) instead runs a multi-tenant request mix on a pool of **named
//! warm devices** — per-device FIFO lanes, parallel across devices —
//! exercising the FTL/coherence/GC/wear state the figure sweeps reset per
//! run and the stream-clock queueing/service split.
//!
//! Timelines are only collected for the three (workload, policy) pairs
//! Figure 10 actually plots; every other cached outcome is a constant-memory
//! [`conduit::RunSummary`], so the cache no longer grows with program length
//! at paper scale.

pub mod arrivals;
pub mod faults;
pub mod fleet;
pub mod interference;
pub mod throughput;
pub mod warm;

use std::collections::HashMap;

use conduit::{gmean, Policy, ProgramId, RunOutcome, RunRequest, Session};
use conduit_types::{ExecutionSite, Resource, SsdConfig};
use conduit_workloads::{characterize, Scale, Workload};

/// Frames one section of `repro` output: the banner line naming the
/// target, then its text.
pub fn section(name: &str, text: &str) -> String {
    format!("==================== {name} ====================\n{text}")
}

/// Runs workload × policy combinations and formats the paper's figures.
#[derive(Debug)]
pub struct Harness {
    cfg: SsdConfig,
    scale: Scale,
    session: Session,
    program_ids: HashMap<Workload, ProgramId>,
    cache: HashMap<(Workload, Policy), RunOutcome>,
}

impl Harness {
    /// Harness at the scale used to regenerate the paper's figures.
    pub fn paper() -> Self {
        Harness::new(SsdConfig::default(), Scale::paper())
    }

    /// A reduced-scale harness for smoke tests.
    pub fn quick() -> Self {
        Harness::new(SsdConfig::small_for_tests(), Scale::test())
    }

    /// Builds a harness with an explicit configuration and scale.
    pub fn new(cfg: SsdConfig, scale: Scale) -> Self {
        Harness {
            session: Session::new(cfg.clone()),
            cfg,
            scale,
            program_ids: HashMap::new(),
            cache: HashMap::new(),
        }
    }

    /// Builder-style: overrides the worker-thread count used by the fan-out
    /// (default: one per available CPU core; 1 runs every pair on the
    /// calling thread). Rebuilds the session, so call it right after
    /// construction, before anything is cached.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.session = Session::builder(self.cfg.clone()).workers(workers).build();
        self.program_ids.clear();
        self.cache.clear();
        self
    }

    /// The workload scale in use.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The session the harness drives (programs registered so far, configs).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Whether a pair's run must carry the full timeline: only the three
    /// series Figure 10 plots ever read one.
    fn needs_timeline(workload: Workload, policy: Policy) -> bool {
        workload == Workload::LlamaInference
            && matches!(
                policy,
                Policy::BwOffloading | Policy::DmOffloading | Policy::Conduit
            )
    }

    /// Vectorizes (once) and registers the workload's program, returning its
    /// registry handle.
    fn ensure_program(&mut self, workload: Workload) -> ProgramId {
        if let Some(&id) = self.program_ids.get(&workload) {
            return id;
        }
        let program = workload
            .program(self.scale)
            .expect("workload generators always produce valid programs");
        let id = self
            .session
            .register(program)
            .expect("generated programs always validate");
        self.program_ids.insert(workload, id);
        id
    }

    fn request_for(&mut self, workload: Workload, policy: Policy) -> RunRequest {
        let id = self.ensure_program(workload);
        RunRequest::new(id, policy).timeline(Self::needs_timeline(workload, policy))
    }

    /// Simulates every not-yet-cached pair in `pairs`, fanning the runs out
    /// across all CPU cores when parallelism is enabled.
    ///
    /// Each run executes on a fresh simulated device, so the reports are
    /// **bit-identical** to running the same pairs one at a time; only the
    /// wall-clock time changes.
    pub fn prefetch(&mut self, pairs: &[(Workload, Policy)]) {
        let mut missing: Vec<(Workload, Policy)> = Vec::new();
        for &pair in pairs {
            if !self.cache.contains_key(&pair) && !missing.contains(&pair) {
                missing.push(pair);
            }
        }
        if missing.is_empty() {
            return;
        }
        let requests: Vec<RunRequest> = missing
            .iter()
            .map(|&(w, p)| self.request_for(w, p))
            .collect();
        let outcomes = self
            .session
            .submit_batch(&requests)
            .expect("simulation of a generated workload cannot fail");
        for (pair, outcome) in missing.into_iter().zip(outcomes) {
            self.cache.insert(pair, outcome);
        }
    }

    /// Simulates all [`Workload::ALL`] × [`Policy::ALL`] pairs (the full
    /// figure sweep), in parallel when enabled.
    pub fn prefetch_all(&mut self) {
        let pairs: Vec<(Workload, Policy)> = Workload::ALL
            .iter()
            .flat_map(|&w| Policy::ALL.iter().map(move |&p| (w, p)))
            .collect();
        self.prefetch(&pairs);
    }

    /// Runs (or returns the cached run of) one workload under one policy.
    pub fn report(&mut self, workload: Workload, policy: Policy) -> RunOutcome {
        if let Some(r) = self.cache.get(&(workload, policy)) {
            return r.clone();
        }
        let request = self.request_for(workload, policy);
        let outcome = self
            .session
            .submit(&request)
            .expect("simulation of a generated workload cannot fail");
        self.cache.insert((workload, policy), outcome.clone());
        outcome
    }

    /// Speedup of `policy` over the host-CPU baseline for `workload`.
    pub fn speedup(&mut self, workload: Workload, policy: Policy) -> f64 {
        let cpu = self.report(workload, Policy::HostCpu);
        let other = self.report(workload, policy);
        other.summary.speedup_over(&cpu.summary)
    }

    /// Energy of `policy` normalized to the host-CPU baseline for `workload`.
    pub fn energy_ratio(&mut self, workload: Workload, policy: Policy) -> f64 {
        let cpu = self.report(workload, Policy::HostCpu);
        let other = self.report(workload, policy);
        other.summary.energy_vs(&cpu.summary)
    }

    // ------------------------------------------------------------------
    // Figures and tables
    // ------------------------------------------------------------------

    /// Every figure and table, exactly as `repro all` prints them: one
    /// parallel sweep fills the cache, then each output is framed by
    /// [`section`] and followed by a blank line.
    pub fn all(&mut self) -> String {
        self.prefetch_all();
        [
            ("table3", self.table3()),
            ("fig4", self.fig4()),
            ("fig5", self.fig5()),
            ("fig7a", self.fig7a()),
            ("fig7b", self.fig7b()),
            ("fig8", self.fig8()),
            ("fig9", self.fig9()),
            ("fig10", self.fig10()),
            ("overheads", self.overheads()),
            ("headline", self.headline()),
        ]
        .iter()
        .map(|(name, text)| section(name, &format!("{text}\n")))
        .collect()
    }

    /// Figure 4: execution-time breakdown of OSP, ISP, IFP, and IFP+ISP on
    /// the three workload classes, normalized to OSP.
    pub fn fig4(&mut self) -> String {
        let classes = [
            ("I/O-intensive", Workload::XorFilter),
            ("More compute-intensive", Workload::Heat3d),
            ("Mixed", Workload::LlmTraining),
        ];
        let policies = [
            ("OSP", Policy::HostCpu),
            ("ISP", Policy::IspOnly),
            ("IFP", Policy::AresFlash),
            ("IFP+ISP", Policy::IfpIsp),
        ];
        let pairs: Vec<(Workload, Policy)> = classes
            .iter()
            .flat_map(|&(_, w)| policies.iter().map(move |&(_, p)| (w, p)))
            .collect();
        self.prefetch(&pairs);
        let mut out = String::from(
            "# Figure 4: normalized execution time and breakdown (lower is better)\n\
             class\tmodel\tnorm_time\tcompute\thost_dm\tinternal_dm\tflash_read\n",
        );
        for (class, workload) in classes {
            let osp = self.report(workload, Policy::HostCpu).summary;
            for (label, policy) in policies {
                let r = self.report(workload, policy).summary;
                let norm = r.total_time.as_ns() / osp.total_time.as_ns();
                let (c, h, i, f) = r.breakdown.fractions();
                out.push_str(&format!(
                    "{class}\t{label}\t{norm:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\n",
                    c * norm,
                    h * norm,
                    i * norm,
                    f * norm
                ));
            }
        }
        out
    }

    /// Figure 5: speedup of the prior techniques and the Ideal policy over
    /// the host CPU (the motivation study — everything except Conduit).
    pub fn fig5(&mut self) -> String {
        self.speedup_table(
            "# Figure 5: speedup over CPU (motivation study)\n",
            &[
                Policy::HostGpu,
                Policy::IspOnly,
                Policy::PudSsd,
                Policy::FlashCosmos,
                Policy::AresFlash,
                Policy::BwOffloading,
                Policy::DmOffloading,
                Policy::Ideal,
            ],
        )
    }

    /// Figure 7(a): speedup over CPU including Conduit.
    pub fn fig7a(&mut self) -> String {
        self.speedup_table(
            "# Figure 7(a): speedup over CPU\n",
            &[
                Policy::HostGpu,
                Policy::IspOnly,
                Policy::PudSsd,
                Policy::FlashCosmos,
                Policy::AresFlash,
                Policy::BwOffloading,
                Policy::DmOffloading,
                Policy::Conduit,
                Policy::Ideal,
            ],
        )
    }

    /// Figure 7(b): energy normalized to CPU, split into data-movement and
    /// compute energy.
    pub fn fig7b(&mut self) -> String {
        let policies = [
            Policy::HostGpu,
            Policy::IspOnly,
            Policy::PudSsd,
            Policy::FlashCosmos,
            Policy::AresFlash,
            Policy::BwOffloading,
            Policy::DmOffloading,
            Policy::Conduit,
            Policy::Ideal,
        ];
        let pairs: Vec<(Workload, Policy)> = Workload::ALL
            .iter()
            .flat_map(|&w| {
                policies
                    .iter()
                    .map(move |&p| (w, p))
                    .chain(std::iter::once((w, Policy::HostCpu)))
            })
            .collect();
        self.prefetch(&pairs);
        let mut out = String::from(
            "# Figure 7(b): energy normalized to CPU (data-movement + compute = total)\n\
             workload\tpolicy\ttotal\tdata_movement\tcompute\n",
        );
        let mut totals: HashMap<Policy, Vec<f64>> = HashMap::new();
        for workload in Workload::ALL {
            let cpu = self.report(workload, Policy::HostCpu).summary;
            let cpu_energy = cpu.total_energy.as_nj();
            for policy in policies {
                let r = self.report(workload, policy).summary;
                let split = r
                    .energy_split
                    .expect("the harness always collects the energy split");
                let total = r.total_energy.as_nj() / cpu_energy;
                let dm = split.data_movement.as_nj() / cpu_energy;
                out.push_str(&format!(
                    "{workload}\t{policy}\t{total:.3}\t{dm:.3}\t{:.3}\n",
                    total - dm
                ));
                totals.entry(policy).or_default().push(total);
            }
        }
        for policy in policies {
            let avg = totals[&policy].iter().sum::<f64>() / totals[&policy].len() as f64;
            out.push_str(&format!("Average\t{policy}\t{avg:.3}\t-\t-\n"));
        }
        out
    }

    /// Figure 8: 99th and 99.99th percentile instruction latencies for the
    /// offloading policies on LLaMA2 inference and jacobi-1d.
    pub fn fig8(&mut self) -> String {
        let mut out = String::from(
            "# Figure 8: tail latencies (microseconds)\nworkload\tpolicy\tp99_us\tp9999_us\n",
        );
        let fig8_policies = [
            Policy::Ideal,
            Policy::Conduit,
            Policy::BwOffloading,
            Policy::DmOffloading,
        ];
        let pairs: Vec<(Workload, Policy)> = [Workload::LlamaInference, Workload::Jacobi1d]
            .iter()
            .flat_map(|&w| fig8_policies.iter().map(move |&p| (w, p)))
            .collect();
        self.prefetch(&pairs);
        for workload in [Workload::LlamaInference, Workload::Jacobi1d] {
            for policy in fig8_policies {
                let r = self.report(workload, policy).summary;
                out.push_str(&format!(
                    "{workload}\t{policy}\t{:.2}\t{:.2}\n",
                    r.percentile(0.99).as_us(),
                    r.percentile(0.9999).as_us()
                ));
            }
        }
        out
    }

    /// Figure 9: fraction of instructions offloaded to each SSD compute
    /// resource.
    pub fn fig9(&mut self) -> String {
        let mut out = String::from(
            "# Figure 9: offloading decisions (fraction of instructions)\n\
             workload\tpolicy\tISP\tPuD-SSD\tIFP\n",
        );
        let fig9_policies = [
            Policy::BwOffloading,
            Policy::DmOffloading,
            Policy::Conduit,
            Policy::Ideal,
        ];
        let pairs: Vec<(Workload, Policy)> = Workload::ALL
            .iter()
            .flat_map(|&w| fig9_policies.iter().map(move |&p| (w, p)))
            .collect();
        self.prefetch(&pairs);
        for workload in Workload::ALL {
            for policy in fig9_policies {
                let r = self.report(workload, policy).summary;
                let (isp, pud, ifp, _) = r.offload_mix.fractions();
                out.push_str(&format!(
                    "{workload}\t{policy}\t{isp:.3}\t{pud:.3}\t{ifp:.3}\n"
                ));
            }
        }
        out
    }

    /// Figure 10: instruction → resource mapping over the execution of
    /// LLaMA2 inference, bucketed so the phase behaviour is visible in text
    /// form. These are the only runs for which the harness requests
    /// timelines.
    pub fn fig10(&mut self) -> String {
        const BUCKETS: usize = 40;
        let mut out = String::from(
            "# Figure 10: instruction-to-resource mapping over time (LLaMA2 inference)\n\
             Each row: policy, then per-bucket dominant resource\n\
             (I = ISP, P = PuD-SSD, F = IFP, h = host)\n",
        );
        self.prefetch(&[
            (Workload::LlamaInference, Policy::BwOffloading),
            (Workload::LlamaInference, Policy::DmOffloading),
            (Workload::LlamaInference, Policy::Conduit),
        ]);
        for policy in [Policy::BwOffloading, Policy::DmOffloading, Policy::Conduit] {
            let outcome = self.report(Workload::LlamaInference, policy);
            let timeline = &outcome
                .artifacts
                .as_ref()
                .expect("fig10 pairs always collect timelines")
                .timeline;
            let bucket_len = (timeline.len() / BUCKETS).max(1);
            let mut row = format!("{policy:<15} ");
            for chunk in timeline.chunks(bucket_len).take(BUCKETS) {
                let mut counts = [0u32; 4];
                for entry in chunk {
                    match entry.site {
                        ExecutionSite::Ssd(Resource::Isp) => counts[0] += 1,
                        ExecutionSite::Ssd(Resource::PudSsd) => counts[1] += 1,
                        ExecutionSite::Ssd(Resource::Ifp) => counts[2] += 1,
                        _ => counts[3] += 1,
                    }
                }
                let winner = ['I', 'P', 'F', 'h'][counts
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, c)| **c)
                    .map(|(i, _)| i)
                    .unwrap_or(0)];
                row.push(winner);
            }
            out.push_str(&row);
            out.push('\n');
        }
        out.push_str(&format!(
            "instructions: {}\n",
            self.report(Workload::LlamaInference, Policy::Conduit)
                .summary
                .instructions
        ));
        out
    }

    /// Table 3: measured workload characteristics next to the paper's
    /// values.
    pub fn table3(&mut self) -> String {
        let mut out = String::from(
            "# Table 3: workload characteristics (measured | paper)\n\
             workload\tvectorizable%\tavg_reuse\tlow%\tmedium%\thigh%\n",
        );
        for workload in Workload::ALL {
            let id = self.ensure_program(workload);
            let program = self
                .session
                .program(id)
                .expect("just-registered program exists");
            let p = characterize(program);
            let (v, r, low, med, high) = workload.paper_characteristics();
            out.push_str(&format!(
                "{workload}\t{:.0} | {:.0}\t{:.1} | {:.1}\t{:.0} | {:.0}\t{:.0} | {:.0}\t{:.0} | {:.0}\n",
                p.vectorizable_pct * 100.0,
                v * 100.0,
                p.avg_reuse,
                r,
                p.low_pct * 100.0,
                low * 100.0,
                p.med_pct * 100.0,
                med * 100.0,
                p.high_pct * 100.0,
                high * 100.0
            ));
        }
        out
    }

    /// §4.5: runtime and storage overheads of the offloader.
    pub fn overheads(&mut self) -> String {
        let mut out = String::from(
            "# Runtime overhead (paper: 3.77 us average, up to 33 us) and storage overhead\n\
             workload\tmean_overhead_us\tmax_overhead_us\n",
        );
        let pairs: Vec<(Workload, Policy)> = Workload::ALL
            .iter()
            .map(|&w| (w, Policy::Conduit))
            .collect();
        self.prefetch(&pairs);
        for workload in Workload::ALL {
            let r = self.report(workload, Policy::Conduit).summary;
            out.push_str(&format!(
                "{workload}\t{:.2}\t{:.2}\n",
                r.overhead.mean().as_us(),
                r.overhead.max.as_us()
            ));
        }
        let cfg = SsdConfig::default();
        let storage = conduit::OverheadModel::new(&cfg).storage();
        let transformer = conduit::InstructionTransformer::new(&cfg);
        out.push_str(&format!(
            "translation table: {} entries, {} bytes; metadata table: {} bytes (paper: ~1.5 KiB total)\n",
            transformer.entries().len(),
            storage.translation_table_bytes,
            storage.metadata_table_bytes,
        ));
        out
    }

    /// Headline numbers: Conduit vs the best prior offloading policy and vs
    /// the Ideal upper bound (paper: 1.8x over DM-Offloading, 46% energy
    /// reduction, 62% of Ideal).
    pub fn headline(&mut self) -> String {
        let mut conduit_vs_dm = Vec::new();
        let mut conduit_vs_cpu = Vec::new();
        let mut energy_vs_dm = Vec::new();
        let mut frac_of_ideal = Vec::new();
        let headline_policies = [
            Policy::DmOffloading,
            Policy::Conduit,
            Policy::Ideal,
            Policy::HostCpu,
        ];
        let pairs: Vec<(Workload, Policy)> = Workload::ALL
            .iter()
            .flat_map(|&w| headline_policies.iter().map(move |&p| (w, p)))
            .collect();
        self.prefetch(&pairs);
        for workload in Workload::ALL {
            let dm = self.report(workload, Policy::DmOffloading).summary;
            let conduit = self.report(workload, Policy::Conduit).summary;
            let ideal = self.report(workload, Policy::Ideal).summary;
            let cpu = self.report(workload, Policy::HostCpu).summary;
            conduit_vs_dm.push(conduit.speedup_over(&dm));
            conduit_vs_cpu.push(conduit.speedup_over(&cpu));
            energy_vs_dm.push(conduit.energy_vs(&dm));
            frac_of_ideal.push(ideal.total_time.as_ns() / conduit.total_time.as_ns());
        }
        format!(
            "# Headline comparison (measured | paper)\n\
             Conduit speedup over CPU:            {:.2}x | 4.2x\n\
             Conduit speedup over DM-Offloading:  {:.2}x | 1.8x\n\
             Conduit energy vs DM-Offloading:     -{:.0}% | -46%\n\
             Conduit fraction of Ideal speed:     {:.0}% | 62%\n",
            gmean(&conduit_vs_cpu),
            gmean(&conduit_vs_dm),
            (1.0 - gmean(&energy_vs_dm)) * 100.0,
            gmean(&frac_of_ideal) * 100.0
        )
    }

    fn speedup_table(&mut self, header: &str, policies: &[Policy]) -> String {
        let pairs: Vec<(Workload, Policy)> = Workload::ALL
            .iter()
            .flat_map(|&w| {
                policies
                    .iter()
                    .map(move |&p| (w, p))
                    .chain(std::iter::once((w, Policy::HostCpu)))
            })
            .collect();
        self.prefetch(&pairs);
        let mut out = String::from(header);
        out.push_str("workload");
        for p in policies {
            out.push_str(&format!("\t{p}"));
        }
        out.push('\n');
        let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
        for workload in Workload::ALL {
            out.push_str(&workload.to_string());
            for (i, policy) in policies.iter().enumerate() {
                let s = self.speedup(workload, *policy);
                per_policy[i].push(s);
                out.push_str(&format!("\t{s:.2}"));
            }
            out.push('\n');
        }
        out.push_str("GMEAN");
        for speedups in &per_policy {
            out.push_str(&format!("\t{:.2}", gmean(speedups)));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_produces_all_figures() {
        let mut h = Harness::quick();
        for (name, text) in [
            ("fig4", h.fig4()),
            ("fig5", h.fig5()),
            ("fig7a", h.fig7a()),
            ("fig7b", h.fig7b()),
            ("fig8", h.fig8()),
            ("fig9", h.fig9()),
            ("fig10", h.fig10()),
            ("table3", h.table3()),
            ("overheads", h.overheads()),
            ("headline", h.headline()),
        ] {
            assert!(text.lines().count() > 3, "{name} output too short:\n{text}");
        }
    }

    // Full serial-vs-parallel sweep equivalence is asserted by
    // tests/integration_determinism.rs; here we only cover the cheap
    // cache/dedupe behaviour of prefetch.
    #[test]
    fn prefetch_dedupes_and_caches() {
        let mut h = Harness::quick();
        let pair = (Workload::Jacobi1d, Policy::Conduit);
        h.prefetch(&[pair, pair, pair]);
        let first = h.report(pair.0, pair.1);
        // A second prefetch of the same pair must be a no-op (cached).
        h.prefetch(&[pair]);
        assert_eq!(first, h.report(pair.0, pair.1));
    }

    #[test]
    fn figure_sweep_prepares_one_device_per_workload() {
        for workers in [1, 2] {
            let mut h = Harness::quick().with_workers(workers);
            h.prefetch_all();
            let stats = h.session().plan_cache_stats();
            // Each of the 66 pairs plans its key once and runs fresh. The
            // first run of each of the 6 workloads builds and prepares the
            // device its other 10 policy runs clone.
            assert_eq!((stats.misses, stats.hits, stats.inline), (66, 0, 0));
            assert_eq!((stats.prepared_builds, stats.prepared_clones), (6, 60));
        }
    }

    #[test]
    fn reports_are_cached() {
        let mut h = Harness::quick();
        let a = h.report(Workload::Jacobi1d, Policy::Conduit);
        let b = h.report(Workload::Jacobi1d, Policy::Conduit);
        assert_eq!(a.summary.total_time, b.summary.total_time);
    }

    #[test]
    fn speedup_table_has_gmean_row() {
        let mut h = Harness::quick();
        let text = h.fig7a();
        assert!(text.contains("GMEAN"));
        assert!(text.contains("Conduit"));
        assert_eq!(text.lines().count(), 2 + Workload::ALL.len() + 1);
    }

    #[test]
    fn only_fig10_pairs_carry_timelines() {
        let mut h = Harness::quick();
        h.prefetch(&[
            (Workload::Jacobi1d, Policy::Conduit),
            (Workload::LlamaInference, Policy::Conduit),
            (Workload::LlamaInference, Policy::Ideal),
        ]);
        assert!(h
            .report(Workload::Jacobi1d, Policy::Conduit)
            .artifacts
            .is_none());
        assert!(h
            .report(Workload::LlamaInference, Policy::Ideal)
            .artifacts
            .is_none());
        let fig10_pair = h.report(Workload::LlamaInference, Policy::Conduit);
        let timeline = &fig10_pair.artifacts.expect("fig10 pair").timeline;
        assert_eq!(timeline.len(), fig10_pair.summary.instructions);
    }

    #[test]
    fn workload_programs_are_registered_once() {
        let mut h = Harness::quick();
        let _ = h.report(Workload::Jacobi1d, Policy::Conduit);
        let _ = h.report(Workload::Jacobi1d, Policy::HostCpu);
        let _ = h.report(Workload::Jacobi1d, Policy::Ideal);
        assert_eq!(h.session().registry().len(), 1);
    }
}
