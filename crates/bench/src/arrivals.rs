//! The `repro arrival-sweep` target: open-loop arrivals at increasing
//! offered load on a pool of warm tenant devices.
//!
//! The warm-pool report shows a *closed-loop* multi-tenant mix (every
//! request is already waiting when the batch starts). This target instead
//! sweeps the **offered load**: each tenant's requests arrive open-loop at
//! a fixed inter-arrival interval ([`conduit::RunRequest::arriving_at`]),
//! derived from the tenant's measured service time and a target per-lane
//! utilization ρ. Because the simulator's lane is a deterministic D/D/1
//! queue, the resulting curve is the textbook hockey stick: below
//! saturation (ρ < 1) every request finds its device idle and queueing
//! delay stays zero while occupancy tracks ρ; past saturation (ρ ≥ 1)
//! arrivals outpace service, the lane's backlog grows linearly, and the
//! mean queueing delay climbs with every additional request — the
//! queueing/service split now measures device saturation, not scheduler
//! artifacts.
//!
//! The printed table has one row per (utilization, tenant): offered load,
//! occupancy ([`conduit_sim::DeviceSnapshot::lane_occupancy`]), idle time
//! and the mean/max arrival-relative queueing delay.

use conduit::{Policy, RunRequest, Session};
use conduit_types::{Duration, SimTime, SsdConfig};
use conduit_workloads::{Scale, Workload};

/// The tenants of the sweep: a flash-friendly, a DRAM-friendly and a
/// host-bound workload, so the service times (and therefore the absolute
/// load axis) differ per lane.
const TENANTS: [(&str, Workload, Policy); 3] = [
    ("tenant-xor", Workload::XorFilter, Policy::Conduit),
    ("tenant-jacobi", Workload::Jacobi1d, Policy::PudSsd),
    ("tenant-aes", Workload::Aes, Policy::IspOnly),
];

/// The per-lane utilizations ρ the sweep offers. Past 1.0 the lane is
/// saturated and queueing grows without bound.
const UTILIZATIONS: [f64; 6] = [0.25, 0.5, 0.75, 0.95, 1.1, 1.4];

/// Requests per tenant per load point.
fn requests_per_tenant(quick: bool) -> usize {
    if quick {
        8
    } else {
        24
    }
}

/// Runs the arrival sweep and formats the queueing-delay-vs-load curve.
///
/// `quick` selects the reduced test scale (the `--smoke` / `--quick` flags
/// of the `repro` binary).
pub fn arrival_sweep_report(quick: bool) -> String {
    let (cfg, scale) = if quick {
        (SsdConfig::small_for_tests(), Scale::test())
    } else {
        (SsdConfig::default(), Scale::paper())
    };
    let n = requests_per_tenant(quick);

    // Probe each tenant's service time once on a fresh session: the
    // inter-arrival interval for utilization ρ is service / ρ.
    let mut probe = Session::builder(cfg.clone()).build();
    let tenants: Vec<(&str, Workload, Policy, Duration)> = TENANTS
        .iter()
        .map(|&(name, workload, policy)| {
            let program = workload.program(scale).expect("generators always succeed");
            let id = probe
                .register(program)
                .expect("generated programs always validate");
            let dev = probe.create_device(name);
            let outcome = probe
                .submit(&RunRequest::new(id, policy).on_device(dev))
                .expect("probe run cannot fail");
            (name, workload, policy, outcome.summary.service_time)
        })
        .collect();

    let mut out = String::from(
        "# Arrival sweep: open-loop per-tenant load vs arrival-relative queueing delay\n\
         # interarrival = service / rho; requests arrive at k * interarrival on each lane\n\
         rho\ttenant\tworkload\tservice_ms\toffered_per_s\toccupancy\tidle_ms\tmean_queue_ms\tmax_queue_ms\n",
    );
    for &rho in &UTILIZATIONS {
        // A fresh session per load point: every curve sample starts from
        // pristine devices, so points are independent and deterministic.
        let mut session = Session::builder(cfg.clone()).build();
        let handles: Vec<_> = tenants
            .iter()
            .map(|&(name, workload, policy, service)| {
                let program = workload.program(scale).expect("generators always succeed");
                let id = session
                    .register(program)
                    .expect("generated programs always validate");
                let dev = session.create_device(name);
                let interarrival = Duration::from_ps((service.as_ps() as f64 / rho) as u64);
                (name, workload, policy, service, id, dev, interarrival)
            })
            .collect();
        let requests: Vec<RunRequest> = (0..n)
            .flat_map(|k| {
                handles
                    .iter()
                    .map(move |&(_, _, policy, _, id, dev, interarrival)| {
                        RunRequest::new(id, policy)
                            .on_device(dev)
                            .arriving_at(SimTime::ZERO + interarrival * k as u64)
                    })
            })
            .collect();
        let outcomes = session
            .submit_batch(&requests)
            .expect("sweep simulation of a generated workload cannot fail");

        for (t, &(name, workload, _, service, _, dev, interarrival)) in handles.iter().enumerate() {
            let queueing: Vec<Duration> = outcomes
                .iter()
                .skip(t)
                .step_by(handles.len())
                .map(|o| o.summary.queueing_time)
                .collect();
            let mean_ps =
                queueing.iter().map(|q| q.as_ps()).sum::<u64>() as f64 / queueing.len() as f64;
            let max = queueing.iter().copied().max().unwrap_or(Duration::ZERO);
            let snap = session.device_snapshot(dev);
            let offered_per_s = 1e12 / interarrival.as_ps() as f64;
            out.push_str(&format!(
                "{rho}\t{name}\t{workload}\t{:.3}\t{offered_per_s:.1}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\n",
                service.as_ms(),
                snap.lane_occupancy(),
                snap.lane_idle_time.as_ms(),
                mean_ps / 1e9,
                max.as_ms(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_one_row_per_load_point_and_tenant() {
        let report = arrival_sweep_report(true);
        let data_rows = report
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("rho") && !l.is_empty())
            .count();
        assert_eq!(data_rows, UTILIZATIONS.len() * TENANTS.len(), "{report}");
        for (name, _, _) in TENANTS {
            assert!(report.contains(name), "missing tenant {name}:\n{report}");
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(arrival_sweep_report(true), arrival_sweep_report(true));
    }

    #[test]
    fn queueing_rises_and_occupancy_saturates_with_load() {
        let report = arrival_sweep_report(true);
        // Parse (rho, occupancy, mean_queue_ms) per row of the first
        // tenant.
        let rows: Vec<(f64, f64, f64)> = report
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .filter(|l| l.contains("tenant-xor"))
            .map(|l| {
                let cols: Vec<&str> = l.split('\t').collect();
                (
                    cols[0].parse().unwrap(),
                    cols[5].parse().unwrap(),
                    cols[7].parse().unwrap(),
                )
            })
            .collect();
        assert_eq!(rows.len(), UTILIZATIONS.len());
        let below: Vec<&(f64, f64, f64)> = rows.iter().filter(|r| r.0 < 1.0).collect();
        let above: Vec<&(f64, f64, f64)> = rows.iter().filter(|r| r.0 > 1.0).collect();
        // Below saturation the D/D/1 lane never queues and occupancy tracks
        // the offered load.
        for (rho, occupancy, mean_queue) in &below {
            assert!(
                *mean_queue < 1e-9,
                "ρ={rho} should not queue in a D/D/1 lane: {report}"
            );
            assert!(
                (occupancy - rho).abs() < 0.11,
                "occupancy {occupancy} should track ρ={rho}: {report}"
            );
        }
        // Past saturation the backlog (and the queueing delay) grows.
        for (rho, occupancy, mean_queue) in &above {
            assert!(
                *mean_queue > 0.0,
                "ρ={rho} must queue past saturation: {report}"
            );
            assert!(
                *occupancy > 0.9,
                "a saturated lane barely idles (got {occupancy}): {report}"
            );
        }
        // And more offered load means more queueing.
        assert!(above.last().unwrap().2 > above.first().unwrap().2);
    }
}
