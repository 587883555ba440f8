//! Determinism of the evaluation pipeline: parallel fan-out — whether via
//! the harness or via `Session::submit_batch` — must be a pure wall-clock
//! optimization: every outcome it produces must be bit-identical to the
//! serial path, and repeated runs must be identical.

use conduit::{Policy, RunOutcome, RunRequest, Session};
use conduit_bench::Harness;
use conduit_types::SsdConfig;
use conduit_workloads::{Scale, Workload};

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let mut serial = Harness::quick().with_workers(1);
    // Force 4 workers so the threaded path is exercised even on single-CPU
    // CI hosts.
    let mut parallel = Harness::quick().with_workers(4);
    serial.prefetch_all();
    parallel.prefetch_all();
    for workload in Workload::ALL {
        for policy in Policy::ALL {
            let a = serial.report(workload, policy);
            let b = parallel.report(workload, policy);
            assert_eq!(
                a, b,
                "{workload}/{policy}: parallel outcome diverged from serial"
            );
        }
    }
}

#[test]
fn submit_batch_is_bit_identical_to_serial_submission() {
    let mut session = Session::builder(SsdConfig::small_for_tests())
        .workers(4)
        .build();
    let mut requests = Vec::new();
    for workload in [Workload::Jacobi1d, Workload::Aes, Workload::LlamaInference] {
        let id = session
            .register(workload.program(Scale::test()).unwrap())
            .unwrap();
        for policy in [Policy::HostCpu, Policy::DmOffloading, Policy::Conduit] {
            // Mix collection flags so both summary-only and artifact-carrying
            // runs cross the thread boundary.
            requests.push(RunRequest::new(id, policy).timeline(policy == Policy::Conduit));
        }
    }

    let batched = session.submit_batch(&requests).unwrap();
    let serial: Vec<RunOutcome> = requests
        .iter()
        .map(|r| session.submit(r).unwrap())
        .collect();
    assert_eq!(batched.len(), serial.len());
    for (i, (b, s)) in batched.iter().zip(&serial).enumerate() {
        assert_eq!(b, s, "request {i}: batched outcome diverged from serial");
    }

    // And a second batch of the same requests is identical again.
    assert_eq!(batched, session.submit_batch(&requests).unwrap());
}

#[test]
fn figures_are_identical_across_harness_modes() {
    let mut serial = Harness::quick().with_workers(1);
    let mut parallel = Harness::quick().with_workers(4);
    assert_eq!(serial.fig7a(), parallel.fig7a());
    assert_eq!(serial.fig7b(), parallel.fig7b());
    assert_eq!(serial.fig8(), parallel.fig8());
    assert_eq!(serial.headline(), parallel.headline());
}

#[test]
fn repeated_sweeps_are_identical() {
    let mut first = Harness::quick();
    let mut second = Harness::quick();
    for workload in [Workload::Jacobi1d, Workload::XorFilter] {
        for policy in [
            Policy::HostCpu,
            Policy::DmOffloading,
            Policy::Conduit,
            Policy::Ideal,
        ] {
            assert_eq!(
                first.report(workload, policy),
                second.report(workload, policy),
                "{workload}/{policy}: simulation is not deterministic"
            );
        }
    }
}
