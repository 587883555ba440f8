//! Cross-policy integration: the qualitative relationships the paper's
//! evaluation reports must hold in the reproduction, exercised through the
//! session API's batched submission path.

use conduit::{gmean, Policy, RunRequest, RunSummary, Session};
use conduit_types::SsdConfig;
use conduit_workloads::{Scale, Workload};

fn run_all(workload: Workload, policies: &[Policy]) -> Vec<RunSummary> {
    run_at(
        SsdConfig::small_for_tests(),
        Scale::test(),
        workload,
        policies,
    )
}

fn run_at(
    cfg: SsdConfig,
    scale: Scale,
    workload: Workload,
    policies: &[Policy],
) -> Vec<RunSummary> {
    let mut session = Session::builder(cfg).build();
    let id = session.register(workload.program(scale).unwrap()).unwrap();
    let requests: Vec<RunRequest> = policies.iter().map(|&p| RunRequest::new(id, p)).collect();
    session
        .submit_batch(&requests)
        .unwrap()
        .into_iter()
        .map(|o| o.summary)
        .collect()
}

#[test]
fn ideal_upper_bounds_every_policy_on_every_workload() {
    for (cfg, scale, label) in [
        (SsdConfig::small_for_tests(), Scale::test(), "test scale"),
        (SsdConfig::default(), Scale::paper(), "paper scale"),
    ] {
        for workload in Workload::ALL {
            let reports = run_at(cfg.clone(), scale, workload, &Policy::ALL);
            let (ideal, others) = reports.split_last().unwrap();
            assert_eq!(ideal.policy, Policy::Ideal);
            for other in others {
                assert!(
                    ideal.total_time <= other.total_time,
                    "{workload} at {label}: Ideal ({}) slower than {} ({})",
                    ideal.total_time,
                    other.policy,
                    other.total_time
                );
            }
        }
    }
}

#[test]
fn conduit_beats_prior_offloading_policies_on_average() {
    let mut conduit_speedups = Vec::new();
    let mut dm_speedups = Vec::new();
    let mut bw_speedups = Vec::new();
    for workload in Workload::ALL {
        let reports = run_all(
            workload,
            &[
                Policy::HostCpu,
                Policy::BwOffloading,
                Policy::DmOffloading,
                Policy::Conduit,
            ],
        );
        let cpu = &reports[0];
        bw_speedups.push(reports[1].speedup_over(cpu));
        dm_speedups.push(reports[2].speedup_over(cpu));
        conduit_speedups.push(reports[3].speedup_over(cpu));
    }
    let conduit = gmean(&conduit_speedups);
    let dm = gmean(&dm_speedups);
    let bw = gmean(&bw_speedups);
    assert!(
        conduit > dm,
        "Conduit gmean speedup {conduit:.2} must exceed DM-Offloading {dm:.2}"
    );
    assert!(
        conduit > bw,
        "Conduit gmean speedup {conduit:.2} must exceed BW-Offloading {bw:.2}"
    );
    // Paper headline: Conduit outperforms CPU by ~4.2x; accept a generous
    // band since the substrate is a reimplementation.
    assert!(
        conduit > 1.5,
        "Conduit gmean speedup over CPU is only {conduit:.2}"
    );
}

#[test]
fn conduit_reduces_energy_versus_host_baselines() {
    let mut ratios = Vec::new();
    for workload in Workload::ALL {
        let reports = run_all(workload, &[Policy::HostCpu, Policy::Conduit]);
        ratios.push(reports[1].energy_vs(&reports[0]));
    }
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;
    assert!(
        mean_ratio < 0.8,
        "Conduit should cut energy vs CPU substantially, got ratio {mean_ratio:.2}"
    );
}

#[test]
fn single_resource_policies_are_dominated_by_adaptive_ones() {
    let mut conduit = Vec::new();
    let mut isp = Vec::new();
    for workload in Workload::ALL {
        let reports = run_all(
            workload,
            &[Policy::HostCpu, Policy::IspOnly, Policy::Conduit],
        );
        let cpu = &reports[0];
        isp.push(reports[1].speedup_over(cpu));
        conduit.push(reports[2].speedup_over(cpu));
    }
    assert!(gmean(&conduit) > gmean(&isp));
}

#[test]
fn offload_mix_tracks_workload_character() {
    // Figure 9: AES (bitwise, flash-resident, memory-bound) uses the
    // controller cores very sparingly and runs almost entirely on the
    // in-memory/in-flash substrates; under pure data-movement minimization
    // it goes to the flash chips. The multiply-heavy LLaMA2 inference avoids
    // IFP and splits between PuD-SSD and ISP.
    let aes = run_all(Workload::Aes, &[Policy::Conduit, Policy::DmOffloading]);
    let (isp_frac, pud_frac, ifp_frac, _) = aes[0].offload_mix.fractions();
    assert!(
        pud_frac + ifp_frac > 0.7,
        "AES under Conduit should run on the NDP substrates, got PuD {pud_frac:.2} + IFP {ifp_frac:.2}"
    );
    assert!(
        isp_frac < 0.3,
        "AES should use ISP sparingly, got {isp_frac:.2}"
    );
    let (_, _, dm_ifp, _) = aes[1].offload_mix.fractions();
    assert!(
        dm_ifp > 0.5,
        "AES under DM-Offloading should stay in flash, got {dm_ifp:.2}"
    );

    let llama = run_all(Workload::LlamaInference, &[Policy::Conduit]);
    let (llama_isp, pud_frac, ifp_frac, _) = llama[0].offload_mix.fractions();
    assert!(
        ifp_frac < 0.5,
        "LLaMA2 inference should avoid IFP for multiplies, got {ifp_frac:.2}"
    );
    assert!(
        pud_frac > 0.1,
        "LLaMA2 inference should use PuD-SSD, got {pud_frac:.2}"
    );
    assert!(
        llama_isp > 0.1,
        "LLaMA2 inference should also use ISP, got {llama_isp:.2}"
    );
}

#[test]
fn conduit_tail_latency_not_worse_than_dm_offloading() {
    // Figure 8: Conduit reduces 99th/99.99th percentile latencies versus the
    // prior offloading policies on LLaMA2 inference. Percentiles come off
    // the summary's constant-memory histogram — no timelines, no sorting.
    let reports = run_all(
        Workload::LlamaInference,
        &[Policy::Conduit, Policy::DmOffloading],
    );
    let (conduit, dm) = (&reports[0], &reports[1]);
    assert!(conduit.percentile(0.99) <= dm.percentile(0.99));
    assert!(conduit.percentile(0.9999) <= dm.percentile(0.9999));
}

#[test]
fn every_policy_completes_every_workload() {
    for workload in Workload::ALL {
        let program = workload.program(Scale::test()).unwrap();
        let instructions = program.len();
        let mut session = Session::builder(SsdConfig::small_for_tests()).build();
        let id = session.register(program).unwrap();
        let requests: Vec<RunRequest> = Policy::ALL
            .iter()
            .map(|&p| RunRequest::new(id, p))
            .collect();
        for (outcome, &policy) in session
            .submit_batch(&requests)
            .unwrap()
            .iter()
            .zip(Policy::ALL.iter())
        {
            assert_eq!(
                outcome.summary.instructions, instructions,
                "{workload} under {policy}"
            );
            assert!(
                outcome.summary.total_time.as_ns() > 0.0,
                "{workload} under {policy}"
            );
        }
    }
}
