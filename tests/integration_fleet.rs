//! Weighted-fair device lanes and the fleet front-end, end to end.
//!
//! Pinned properties:
//!
//! 1. **Equal weights are FIFO** — a batch whose lane requests all carry
//!    the same weight (whatever its value) is bit-identical to the
//!    pre-weight FIFO lane, across serial and 2/4/8-worker pools.
//! 2. **Unequal weights split the lane proportionally** — with two
//!    always-backlogged flows at 3:1 weights on one lane, the early
//!    completions divide the lane's busy time in roughly that ratio
//!    (surplus-round-robin over simulated service time), while the full
//!    batch still serves every request.
//! 3. **Weighted lanes stay deterministic** — the same weighted batch is
//!    bit-identical on every worker count.
//! 4. **Fleet serving composes with sessions** — a single-tenant trace
//!    replayed through a `Fleet` matches the same trace replayed directly
//!    on a `Session` (same arrivals, same merged latency), whatever the
//!    shard count.

use conduit::{Policy, RunOutcome, RunRequest, Session};
use conduit_fleet::Fleet;
use conduit_sim::LatencyStats;
use conduit_traffic::{ArrivalSpec, TenantSpec, TrafficMix};
use conduit_types::{Duration, SsdConfig};
use conduit_workloads::{Scale, Workload};

fn session(workers: Option<usize>) -> Session {
    let builder = Session::builder(SsdConfig::small_for_tests());
    match workers {
        None => builder.serial(),
        Some(n) => builder.workers(n),
    }
    .build()
}

/// A backlogged two-flow batch on one lane: `hi` requests at weight
/// `w_hi`, `lo` requests at weight `w_lo`, all arriving at time zero,
/// interleaved in submission order.
fn two_flow_batch(
    session: &mut Session,
    hi: usize,
    w_hi: u32,
    lo: usize,
    w_lo: u32,
) -> Vec<RunRequest> {
    let program = Workload::XorFilter
        .program(Scale::test())
        .expect("generators always succeed");
    let id = session.register(program).expect("programs validate");
    let device = session.create_device("wfq-lane");
    let mut requests = Vec::new();
    for i in 0..hi.max(lo) {
        if i < hi {
            requests.push(
                RunRequest::new(id, Policy::Conduit)
                    .on_device(device)
                    .weighted(0, w_hi),
            );
        }
        if i < lo {
            requests.push(
                RunRequest::new(id, Policy::Conduit)
                    .on_device(device)
                    .weighted(1, w_lo),
            );
        }
    }
    requests
}

fn summaries(outcomes: &[RunOutcome]) -> Vec<(Duration, Duration, Duration)> {
    outcomes
        .iter()
        .map(|o| {
            (
                o.summary.total_time,
                o.summary.service_time,
                o.summary.queueing_time,
            )
        })
        .collect()
}

#[test]
fn equal_weights_are_bit_identical_to_fifo_on_every_pool() {
    // Weight 1 on the serial pool is the pre-weight FIFO baseline.
    let mut baseline_session = session(None);
    let batch = two_flow_batch(&mut baseline_session, 12, 1, 12, 1);
    let baseline = summaries(&baseline_session.submit_batch(&batch).unwrap());

    for weight in [1u32, 7] {
        for workers in [None, Some(2), Some(4), Some(8)] {
            let mut s = session(workers);
            let batch = two_flow_batch(&mut s, 12, weight, 12, weight);
            let outcomes = s.submit_batch(&batch).unwrap();
            assert_eq!(
                summaries(&outcomes),
                baseline,
                "uniform weight {weight} on workers {workers:?} must be plain FIFO"
            );
        }
    }
}

#[test]
fn unequal_weights_split_a_backlogged_lane_proportionally() {
    let mut s = session(None);
    let batch = two_flow_batch(&mut s, 32, 3, 32, 1);
    let outcomes = s.submit_batch(&batch).unwrap();
    assert_eq!(outcomes.len(), batch.len(), "every request is served");

    // All arrivals are at time zero, so each outcome's total time is its
    // completion instant. While both flows are backlogged, surplus round
    // robin should hand flow 0 about three quarters of the lane. Look at
    // the first half of completions: the busy time served to flow 0 must
    // be close to 3x flow 1's share.
    let mut completions: Vec<(Duration, u32, Duration)> = outcomes
        .iter()
        .zip(&batch)
        .map(|(o, r)| (o.summary.total_time, r.flow(), o.summary.service_time))
        .collect();
    completions.sort();
    let head = &completions[..completions.len() / 2];
    let busy = |flow: u32| -> f64 {
        head.iter()
            .filter(|(_, f, _)| *f == flow)
            .map(|(_, _, s)| s.as_ms())
            .sum()
    };
    let share = busy(0) / busy(1).max(f64::MIN_POSITIVE);
    assert!(
        (2.0..=4.5).contains(&share),
        "3:1 weights should split the backlogged lane ~3:1, got {share:.2}"
    );

    // The whole batch drains both flows completely.
    let served_hi = completions.iter().filter(|(_, f, _)| *f == 0).count();
    let served_lo = completions.iter().filter(|(_, f, _)| *f == 1).count();
    assert_eq!((served_hi, served_lo), (32, 32));
}

#[test]
fn weighted_batches_are_deterministic_across_pools() {
    let mut baseline = None;
    for workers in [None, Some(2), Some(4), Some(8)] {
        let mut s = session(workers);
        let batch = two_flow_batch(&mut s, 16, 5, 16, 2);
        let outcomes = summaries(&s.submit_batch(&batch).unwrap());
        match &baseline {
            None => baseline = Some(outcomes),
            Some(b) => assert_eq!(
                *b, outcomes,
                "weighted lanes must not depend on the worker count ({workers:?})"
            ),
        }
    }
}

#[test]
fn fleet_replay_matches_direct_session_replay() {
    let mix = TrafficMix::new(Scale::test()).tenant(TenantSpec::new(
        "solo",
        "solo-lane",
        Workload::Jacobi1d,
        Policy::Conduit,
        ArrivalSpec::Deterministic {
            interarrival: Duration::from_us(40.0),
            phase: Duration::ZERO,
        },
    ));
    let trace = mix.generate(Duration::from_us(1200.0)).unwrap();

    // Direct session replay: one batch, arrivals from time zero.
    let mut direct_session = Session::builder(SsdConfig::small_for_tests()).build();
    let run = trace.instantiate(&mut direct_session).unwrap();
    let outcomes = direct_session.submit_batch(&run.requests).unwrap();
    let mut direct = LatencyStats::new();
    for outcome in &outcomes {
        direct.record(outcome.summary.total_time);
    }

    for shards in [1usize, 4] {
        let mut fleet = Fleet::builder(SsdConfig::small_for_tests())
            .shards(shards)
            .build();
        let report = fleet.run_trace(&trace).unwrap();
        assert_eq!(report.served as usize, trace.records.len());
        assert_eq!(report.shed, 0);
        for p in [0.50, 0.99, 0.999] {
            assert_eq!(
                report.latency.percentile(p),
                direct.percentile(p),
                "fleet ({shards} shards) must reproduce the direct replay (p{p})"
            );
        }
        assert_eq!(report.latency.mean(), direct.mean());
    }
}
