//! Fresh runs of one registered program share one prepared device per
//! batch: the first run builds and prepares it, the others clone it. Each
//! clone is exactly the device its run would have built, so every outcome
//! matches a lone submit of the same request, which builds its own.

use conduit::{PlanCacheStats, Policy, RunRequest, Session};
use conduit_types::{ConduitError, OpType, Operand, SsdConfig, VectorProgram};
use conduit_workloads::{Scale, Workload};

fn session(workers: usize) -> Session {
    Session::builder(SsdConfig::small_for_tests())
        .workers(workers)
        .build()
}

/// Prepared-device builds and clones between two snapshots.
fn devices_since(session: &Session, before: PlanCacheStats) -> (u64, u64) {
    let now = session.plan_cache_stats();
    (
        now.prepared_builds - before.prepared_builds,
        now.prepared_clones - before.prepared_clones,
    )
}

#[test]
fn shared_prepared_devices_reproduce_lone_submits() {
    for workers in [1, 2] {
        let mut s = session(workers);
        let xor = Workload::XorFilter.program(Scale::test()).unwrap();
        let a = s
            .register(Workload::Jacobi1d.program(Scale::test()).unwrap())
            .unwrap();
        let b = s.register(xor.clone()).unwrap();
        let mut requests: Vec<RunRequest> = [
            Policy::HostCpu,
            Policy::IspOnly,
            Policy::PudSsd,
            Policy::BwOffloading,
            Policy::Conduit,
        ]
        .into_iter()
        .map(|p| RunRequest::new(a, p))
        .collect();
        requests.extend(
            [Policy::DmOffloading, Policy::Conduit, Policy::Ideal]
                .map(|p| RunRequest::new(b, p).timeline(p == Policy::Conduit)),
        );
        requests.push(RunRequest::new(a, Policy::Conduit));
        requests.extend((0..3).map(|_| RunRequest::new(a, Policy::AresFlash)));
        requests.push(RunRequest::inline(xor, Policy::Conduit).with_timeline());

        let before = s.plan_cache_stats();
        let batched = s.submit_batch(&requests).unwrap();
        // Program a runs 5 + 1 + 3 times and b 3 times: one build each, the
        // rest clones. The inline copy of b builds its own device.
        assert_eq!(devices_since(&s, before), (3, 8 + 2), "{workers} workers");

        let before = s.plan_cache_stats();
        for (i, (request, outcome)) in requests.iter().zip(&batched).enumerate() {
            let lone = s.submit(request).unwrap();
            assert_eq!(outcome, &lone, "{workers} workers: request {i}");
        }
        // A lone submit runs once, so it builds its own device.
        assert_eq!(devices_since(&s, before), (requests.len() as u64, 0));
        // The inline copy, on its own device, matches b's cloned one.
        assert_eq!(batched[12], batched[6], "{workers} workers: inline copy");
    }
}

#[test]
fn a_failed_prepare_fails_its_program_every_time_and_spares_the_others() {
    let past_end = SsdConfig::small_for_tests().logical_pages();
    for workers in [1, 2] {
        let mut s = session(workers);
        let good = s
            .register(Workload::Jacobi1d.program(Scale::test()).unwrap())
            .unwrap();
        let mut beyond = VectorProgram::new("past-the-end");
        beyond.push_binary(OpType::Add, Operand::page(0), Operand::page(past_end));
        let bad = s.register(beyond).unwrap();

        let good_requests = [
            RunRequest::new(good, Policy::Conduit),
            RunRequest::new(good, Policy::HostCpu),
        ];
        let bad_requests = [
            RunRequest::new(bad, Policy::Conduit),
            RunRequest::new(bad, Policy::IspOnly),
            RunRequest::new(bad, Policy::IspOnly),
        ];
        let mixed = [
            good_requests[0].clone(),
            bad_requests[0].clone(),
            bad_requests[1].clone(),
            bad_requests[2].clone(),
            good_requests[1].clone(),
        ];
        // A second identical batch fails the same way: nothing is cached.
        for round in 0..2 {
            let ctx = format!("{workers} workers, round {round}");
            let before = s.plan_cache_stats();
            let err = s.submit_batch(&mixed).unwrap_err();
            assert!(
                matches!(err, ConduitError::PageOutOfRange { .. }),
                "{ctx}: {err:?}"
            );
            // The good program's two runs got their devices (one build, one
            // clone); no run of the failing program did.
            assert_eq!(devices_since(&s, before), (1, 1), "{ctx}");
            for request in &bad_requests {
                assert!(
                    matches!(s.submit(request), Err(ConduitError::PageOutOfRange { .. })),
                    "{ctx}"
                );
            }
            let lone: Vec<_> = good_requests.iter().map(|r| s.submit(r).unwrap()).collect();
            assert_eq!(s.submit_batch(&good_requests).unwrap(), lone, "{ctx}");
        }
    }
}
