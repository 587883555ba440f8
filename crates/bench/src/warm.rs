//! The `repro warm-pool` target: a multi-tenant request mix on a pool of
//! named warm devices.
//!
//! The paper's deployment scenario is several long-lived SSDs serving
//! different tenants: each device's FTL mappings, coherence state,
//! garbage-collection debt and wear are *carried over* from request to
//! request rather than reset per experiment, and the devices age
//! independently of one another. This module drives that scenario through
//! the service API: one [`Session`] with one named device per tenant
//! ([`Session::create_device`]), each tenant's requests submitted in rounds
//! of batches so the per-device FIFO lanes execute in parallel across
//! devices while staying serial (and deterministic) within each device.
//!
//! The report prints, per request, the stream-clock split
//! ([`conduit::RunSummary::queueing_time`] vs
//! [`conduit::RunSummary::service_time`]) and the device-delta counters the
//! run added ([`conduit::RunSummary::device_delta`]), then ends with each
//! device's cumulative [`conduit_sim::DeviceSnapshot`] — the observable
//! that distinguishes a warm pool from the fresh-device figure sweeps,
//! where every one of these counters would restart from zero.

use conduit::{Policy, RunRequest, Session};
use conduit_types::SsdConfig;
use conduit_workloads::{Scale, Workload};

/// The multi-tenant mix: each tenant submits one workload under one policy
/// on its own named device. The policies are chosen to exercise different
/// parts of the persistent state — Conduit mixes all three SSD resources,
/// PuD-SSD dirties DRAM rows, ISP-only dirties controller SRAM, and the
/// host baseline drags pages across the PCIe link and back.
const TENANTS: [(&str, Workload, Policy); 4] = [
    ("tenant-xor", Workload::XorFilter, Policy::Conduit),
    ("tenant-jacobi", Workload::Jacobi1d, Policy::PudSsd),
    ("tenant-aes", Workload::Aes, Policy::IspOnly),
    ("tenant-llm", Workload::LlmTraining, Policy::HostCpu),
];

/// How many requests each tenant submits per round: the lane scheduling
/// (and the queueing/service split) is only visible when a device receives
/// more than one request per batch.
const REQUESTS_PER_ROUND: usize = 2;

/// Runs the warm multi-tenant pool and formats the report.
///
/// `quick` selects the reduced test scale (the `--smoke` / `--quick` flags
/// of the `repro` binary); the paper scale runs the same mix on full-size
/// devices.
pub fn warm_pool_report(quick: bool) -> String {
    let (cfg, scale, rounds) = if quick {
        (SsdConfig::small_for_tests(), Scale::test(), 2usize)
    } else {
        (SsdConfig::default(), Scale::paper(), 3usize)
    };

    let mut session = Session::builder(cfg).build();
    let tenants: Vec<_> = TENANTS
        .iter()
        .map(|&(name, workload, policy)| {
            let program = workload.program(scale).expect("generators always succeed");
            let id = session
                .register(program)
                .expect("generated programs always validate");
            let device = session.create_device(name);
            (name, workload, policy, id, device)
        })
        .collect();

    let mut out = String::from(
        "# Warm device pool: 4 tenants on 4 named devices (per-device FIFO lanes, parallel across devices)\n\
         req\ttenant\tworkload\tpolicy\tqueue_ms\tservice_ms\trewrites\tcoh_syncs\tgc_inv\tpages_migrated\twear_spread\tdevice_ops\n",
    );
    let mut seq = 0usize;
    for _ in 0..rounds {
        // One batch per round: every tenant's lane gets two requests, so
        // the second request of each lane shows real queueing time while
        // the four lanes execute in parallel.
        let requests: Vec<RunRequest> = (0..REQUESTS_PER_ROUND)
            .flat_map(|_| {
                tenants.iter().map(|&(_, _, policy, id, device)| {
                    RunRequest::new(id, policy).on_device(device)
                })
            })
            .collect();
        let outcomes = session
            .submit_batch(&requests)
            .expect("warm simulation of a generated workload cannot fail");
        for (outcome, &(name, workload, policy, _, _)) in outcomes
            .iter()
            .zip(tenants.iter().cycle().take(outcomes.len()))
        {
            let s = &outcome.summary;
            let d = s.device_delta;
            out.push_str(&format!(
                "{seq}\t{name}\t{workload}\t{policy}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                s.queueing_time.as_ms(),
                s.service_time.as_ms(),
                d.rewrites,
                d.coherence_syncs,
                d.gc_invocations,
                d.pages_migrated,
                d.wear_spread,
                d.device_ops,
            ));
            seq += 1;
        }
    }

    out.push_str(&format!(
        "\n# Cumulative per-device state after {seq} requests\n\
         tenant\tpages_mapped\trewrites\tcoh_writes\tcoh_syncs\tgc_inv\tgc_migrated\twear_migrated\twear_spread\tdevice_ops\tlane_reqs\toccupancy\tqueued_ms\tidle_ms\tstream_clock_ms\tenergy_mJ\n"
    ));
    for &(name, _, _, _, device) in &tenants {
        let snap = session.device_snapshot(device);
        let clock = session.device_clock(device);
        out.push_str(&format!(
            "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\n",
            snap.pages_mapped,
            snap.rewrites,
            snap.coherence_writes,
            snap.coherence_syncs,
            snap.gc_invocations,
            snap.gc_pages_migrated,
            snap.wear_pages_migrated,
            snap.wear_spread,
            snap.device_ops,
            snap.lane_requests,
            snap.lane_occupancy(),
            snap.lane_queued_time.as_ms(),
            snap.lane_idle_time.as_ms(),
            clock.as_ps() as f64 / 1e9,
            snap.total_energy.as_nj() / 1e6,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_warm_pool_produces_a_full_report() {
        let report = warm_pool_report(true);
        // One row per request plus the cumulative block.
        assert!(
            report.lines().count() > TENANTS.len() * REQUESTS_PER_ROUND * 2,
            "report too short:\n{report}"
        );
        assert!(report.contains("Cumulative per-device state"));
        for (name, _, _) in TENANTS {
            assert!(report.contains(name), "missing tenant {name}:\n{report}");
        }
    }

    #[test]
    fn warm_pool_is_deterministic() {
        assert_eq!(warm_pool_report(true), warm_pool_report(true));
    }
}
