//! The `repro fleet-sweep` target: shard-count scaling of the fleet
//! front-end at a fixed offered load.
//!
//! One multi-tenant [`conduit_traffic::TrafficMix`] — steady latency-bound
//! tenants, a weighted pair sharing a deficit-round-robin lane, an
//! SLO-capped hog and a bursty on/off source — is unrolled into a CTR1
//! trace once, round-tripped through the serialized trace format (which
//! carries each tenant's weight and SLO targets), and replayed
//! through a [`conduit_fleet::Fleet`] at every shard count in
//! `{1, 2, 4, 8}`.
//!
//! Because every tenant owns (or explicitly shares) a named device and
//! device lanes are fully independent, the merged fleet latency and the
//! per-tenant shed counts are **bit-identical across shard counts**; only
//! the per-shard occupancy rows change as rendezvous hashing spreads the
//! lanes. That invariant is what the run-twice CI diff and the tests below
//! pin down.

use conduit::Policy;
use conduit_fleet::Fleet;
use conduit_traffic::{ArrivalSpec, SloTarget, TenantSpec, Trace, TrafficMix};
use conduit_types::{Duration, SsdConfig};
use conduit_workloads::{Scale, Workload};

use crate::interference::probe_service;

/// Shard counts the sweep visits.
const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// Steady-tenant arrivals per tenant over the horizon.
fn steady_arrivals(quick: bool) -> u64 {
    if quick {
        8
    } else {
        32
    }
}

/// The sweep's tenant mix: six tenants over five named lanes.
///
/// * `steady-a` / `steady-b` — latency-bound tenants on their own lanes at
///   half their service rate (the well-behaved population),
/// * `wfq-hi` / `wfq-lo` — a 4:1 weighted pair sharing one lane at a
///   combined load just past saturation, so deficit round robin arbitrates,
/// * `hog` — an open-loop tenant offered at twice its service rate with a
///   lane-occupancy SLO cap, so admission control sheds its later windows,
/// * `bursty` — a Markov-modulated on/off source on its own lane.
fn sweep_mix(cfg: &SsdConfig, scale: Scale, quick: bool) -> (TrafficMix, Duration) {
    let steady_a = probe_service(cfg, Workload::Jacobi1d, Policy::Conduit, scale);
    let steady_b = probe_service(cfg, Workload::XorFilter, Policy::Conduit, scale);
    let wfq = probe_service(cfg, Workload::Aes, Policy::Conduit, scale);
    let hog = probe_service(cfg, Workload::LlmTraining, Policy::HostCpu, scale);

    let gap_a = steady_a * 2;
    let horizon = gap_a * steady_arrivals(quick);
    let mix = TrafficMix::new(scale)
        .tenant(TenantSpec::new(
            "steady-a",
            "lane-a",
            Workload::Jacobi1d,
            Policy::Conduit,
            ArrivalSpec::Deterministic {
                interarrival: gap_a,
                phase: Duration::ZERO,
            },
        ))
        .tenant(TenantSpec::new(
            "steady-b",
            "lane-b",
            Workload::XorFilter,
            Policy::Conduit,
            ArrivalSpec::Deterministic {
                interarrival: steady_b * 2,
                phase: steady_b,
            },
        ))
        // The weighted pair arrives in lockstep at a combined load of
        // ~1.3x the lane's service rate: the lane stays backlogged, so
        // the 4:1 deficit split decides who waits.
        .tenant(
            TenantSpec::new(
                "wfq-hi",
                "wfq-lane",
                Workload::Aes,
                Policy::Conduit,
                ArrivalSpec::Deterministic {
                    interarrival: wfq * 3 / 2,
                    phase: Duration::ZERO,
                },
            )
            .weighted(4),
        )
        .tenant(
            TenantSpec::new(
                "wfq-lo",
                "wfq-lane",
                Workload::Aes,
                Policy::Conduit,
                ArrivalSpec::Deterministic {
                    interarrival: wfq * 3 / 2,
                    phase: wfq / 4,
                },
            )
            .weighted(1),
        )
        .tenant(
            TenantSpec::new(
                "hog",
                "hog-lane",
                Workload::LlmTraining,
                Policy::HostCpu,
                ArrivalSpec::Deterministic {
                    interarrival: hog / 2,
                    phase: Duration::ZERO,
                },
            )
            .with_slo(SloTarget {
                max_p99: None,
                max_lane_occupancy: Some(0.8),
            }),
        )
        .tenant(TenantSpec::new(
            "bursty",
            "burst-lane",
            Workload::Heat3d,
            Policy::Conduit,
            ArrivalSpec::MarkovOnOff {
                burst_interarrival: gap_a / 2,
                mean_on: gap_a * 3,
                mean_off: gap_a * 3,
                seed: 0x5EED_F1EE,
            },
        ));
    (mix, horizon)
}

/// Runs the fleet sweep and formats the table.
///
/// `quick` selects the reduced smoke scale (the `--smoke` / `--quick`
/// flags of the `repro` binary).
pub fn fleet_sweep_report(quick: bool) -> String {
    let cfg = if quick {
        SsdConfig::small_for_tests()
    } else {
        SsdConfig::default()
    };
    let scale = Scale::test();
    let (mix, horizon) = sweep_mix(&cfg, scale, quick);

    // The offered load is fixed once: every shard count replays the exact
    // same CTR1 byte stream (round-tripped through the serialized format,
    // which carries the tenants' weights and SLO targets).
    let bytes = mix
        .generate(horizon)
        .expect("sweep mixes are always valid")
        .to_bytes();
    let trace = Trace::from_bytes(&bytes).expect("sweep traces round-trip");
    // Admission re-evaluates SLOs a handful of times over the horizon.
    let window = horizon / 8;

    let mut out = String::from(
        "# Fleet sweep: fixed offered load from one CTR1 trace, shard count swept\n\
         # fleet latency = arrival-to-completion merged across all tenants;\n\
         # lanes are per-device, so the merged rows are bit-identical across\n\
         # shard counts and only the occupancy spread changes\n\
         shards\trecords\tserved\tshed\tfleet_p50_ms\tfleet_p99_ms\tfleet_p999_ms\n",
    );
    let mut occupancy = String::from(
        "# per-shard spread: devices placed, cumulative lane occupancy, lane requests\n\
         # occ\tshards\tshard\tdevices\tlane_occupancy\tlane_requests\tdegraded\n",
    );
    let mut sheds = String::from(
        "# admission sheds: tenant, window index, typed rejection count\n\
         # shed\tshards\ttenant\twindow\trequests\n",
    );
    for shards in SHARDS {
        let mut fleet = Fleet::builder(cfg.clone())
            .shards(shards)
            .admission_window(window)
            .build();
        let report = fleet
            .run_trace(&trace)
            .expect("sweep traces replay cleanly");
        out.push_str(&format!(
            "{shards}\t{}\t{}\t{}\t{:.3}\t{:.3}\t{:.3}\n",
            trace.records.len(),
            report.served,
            report.shed,
            report.latency.percentile(0.50).as_ms(),
            report.latency.percentile(0.99).as_ms(),
            report.latency.percentile(0.999).as_ms(),
        ));
        for (shard, s) in report.shards.iter().enumerate() {
            occupancy.push_str(&format!(
                "occ\t{shards}\t{shard}\t{}\t{:.3}\t{}\t{}\n",
                s.devices,
                s.lanes.occupancy(),
                s.lanes.requests,
                s.degraded,
            ));
        }
        for shed in &report.sheds {
            sheds.push_str(&format!(
                "shed\t{shards}\t{}\t{}\t{}\n",
                shed.tenant, shed.window, shed.requests,
            ));
        }
    }
    out.push_str(&occupancy);
    out.push_str(&sheds);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows<'a>(report: &'a str, prefix: &str) -> Vec<Vec<&'a str>> {
        report
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| l.split('\t').collect::<Vec<_>>())
            .filter(|r| match prefix {
                "main" => r[0].parse::<usize>().is_ok(),
                p => r[0] == p,
            })
            .collect()
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(fleet_sweep_report(true), fleet_sweep_report(true));
    }

    #[test]
    fn merged_fleet_rows_are_identical_across_shard_counts() {
        let report = fleet_sweep_report(true);
        let main = rows(&report, "main");
        assert_eq!(main.len(), SHARDS.len(), "{report}");
        for row in &main[1..] {
            assert_eq!(
                row[1..],
                main[0][1..],
                "per-device lanes must make merged results shard-count independent: {report}"
            );
        }
    }

    #[test]
    fn every_record_is_served_or_shed_and_the_hog_sheds() {
        let report = fleet_sweep_report(true);
        for row in rows(&report, "main") {
            let records: u64 = row[1].parse().unwrap();
            let served: u64 = row[2].parse().unwrap();
            let shed: u64 = row[3].parse().unwrap();
            assert_eq!(served + shed, records, "{report}");
            assert!(shed > 0, "the SLO-capped hog must shed: {report}");
        }
        let sheds = rows(&report, "shed");
        assert!(!sheds.is_empty(), "{report}");
        assert!(
            sheds.iter().all(|r| r[2] == "hog"),
            "only the capped tenant may shed: {report}"
        );
    }

    #[test]
    fn occupancy_rows_account_for_every_lane() {
        let report = fleet_sweep_report(true);
        let occ = rows(&report, "occ");
        for shards in SHARDS {
            let mine: Vec<_> = occ
                .iter()
                .filter(|r| r[1].parse::<usize>().unwrap() == shards)
                .collect();
            assert_eq!(mine.len(), shards, "one row per shard: {report}");
            let devices: usize = mine.iter().map(|r| r[3].parse::<usize>().unwrap()).sum();
            assert_eq!(devices, 5, "five named lanes, wherever they land: {report}");
            let requests: u64 = mine.iter().map(|r| r[5].parse::<u64>().unwrap()).sum();
            assert!(requests > 0, "{report}");
        }
    }
}
