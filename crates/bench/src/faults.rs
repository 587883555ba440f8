//! The `repro fault-sweep` target: raw flash failure rate vs tail latency,
//! retry/remap work and time-to-degraded on a write-heavy tenant.
//!
//! Each sweep point attaches a seeded [`conduit_types::FaultConfig`] to a
//! fresh warm device and drives it with an out-of-place write stream that
//! alternates SSD-internal and host policies — the policy flip forces every
//! other request to flush its dirty pages through the FTL's flash-program
//! path, which is where program faults fire and blocks retire. Read
//! transients ride the same rate, so the retry ladder charges real sense
//! latency into the tail.
//!
//! The printed table has one row per raw failure rate: requests served,
//! p50/p99 service time, the fault counters
//! ([`conduit_sim::DeviceSnapshot`]), the device's final health, and the
//! request index at which the spare-block budget ran out (`-` while the
//! device stays healthy). The zero-rate row doubles as the bit-identity
//! invariant: an inert plan draws nothing, so its counters are all zero and
//! its latencies match a session without fault injection.

use conduit::{Policy, RunRequest, Session};
use conduit_types::{
    ConduitError, Duration, FaultConfig, LogicalPageId, OpType, Operand, SsdConfig, VectorInst,
    VectorProgram,
};

/// The raw per-operation failure rates the sweep offers (applied to
/// program, erase and transient-read faults alike).
const RATES: [f64; 5] = [0.0, 1e-3, 1e-2, 5e-2, 0.3];

/// Every sweep point replays the same seed: the curve is a function of the
/// rate alone, reproducible across runs and worker counts.
const SWEEP_SEED: u64 = 0xC0DE_FA17;

/// Spare blocks per device: small enough that the top rate exhausts it.
const SPARE_BLOCKS: u64 = 4;

/// Requests per sweep point.
fn requests_per_point(quick: bool) -> usize {
    if quick {
        32
    } else {
        96
    }
}

/// A store-bearing program: every run produces a dirty result page, so the
/// alternating host policy has something to flush to flash.
fn writer_program() -> VectorProgram {
    let mut prog = VectorProgram::new("fault-writer");
    let x = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    prog.push(
        VectorInst::binary(1, OpType::Add, Operand::result(x), Operand::page(8))
            .store_to(LogicalPageId::new(12)),
    );
    prog
}

/// The seeded fault plan for one sweep point.
fn sweep_faults(rate: f64) -> FaultConfig {
    FaultConfig {
        program_fail_rate: rate,
        erase_fail_rate: rate,
        read_transient_rate: rate,
        wear_sensitivity: 0.1,
        spare_blocks: SPARE_BLOCKS,
        ..FaultConfig::with_seed(SWEEP_SEED)
    }
}

/// A percentile of the collected per-request service times.
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Runs the fault sweep and formats the rate-vs-tail/degradation curve.
///
/// `quick` selects the reduced test scale (the `--smoke` / `--quick` flags
/// of the `repro` binary).
pub fn fault_sweep_report(quick: bool) -> String {
    let cfg = if quick {
        SsdConfig::small_for_tests()
    } else {
        SsdConfig::default()
    };
    let n = requests_per_point(quick);

    let mut out = String::from(
        "# Fault sweep: raw flash failure rate vs tail latency and degradation\n\
         # same seed at every point; writes alternate Conduit/HostCpu so every\n\
         # other request flushes through the flash-program path\n\
         rate\trequests\tp50_ms\tp99_ms\tread_retries\tprogram_failures\terase_failures\t\
         retired_blocks\tremapped_pages\thealth\tdegraded_at\n",
    );
    for &rate in &RATES {
        // A fresh session per sweep point: each curve sample ages its own
        // device from pristine, so points are independent and deterministic.
        let mut session = Session::builder(cfg.clone()).build();
        let id = session
            .register(writer_program())
            .expect("the writer program always validates");
        let dev = session.create_device_with_faults("wearing", sweep_faults(rate));

        let mut latencies: Vec<Duration> = Vec::new();
        let mut degraded_at: Option<usize> = None;
        for i in 0..n {
            let policy = if i % 2 == 0 {
                Policy::Conduit
            } else {
                Policy::HostCpu
            };
            match session.submit(&RunRequest::new(id, policy).on_device(dev)) {
                Ok(outcome) => latencies.push(outcome.summary.service_time),
                Err(ConduitError::DeviceDegraded { .. }) => {
                    degraded_at = Some(i);
                    break;
                }
                Err(other) => panic!("unexpected sweep error at rate {rate}: {other}"),
            }
        }
        latencies.sort_unstable();

        let snap = session.device_snapshot(dev);
        let degraded = degraded_at.map_or_else(|| "-".to_string(), |i| i.to_string());
        out.push_str(&format!(
            "{rate}\t{}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{}\t{}\t{degraded}\n",
            latencies.len(),
            percentile(&latencies, 0.5).as_ms(),
            percentile(&latencies, 0.99).as_ms(),
            snap.read_retries,
            snap.program_failures,
            snap.erase_failures,
            snap.retired_blocks,
            snap.remapped_pages,
            snap.health,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_rows(report: &str) -> Vec<Vec<String>> {
        report
            .lines()
            .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
            .map(|l| l.split('\t').map(str::to_string).collect())
            .collect()
    }

    #[test]
    fn quick_sweep_produces_one_row_per_rate() {
        let report = fault_sweep_report(true);
        assert_eq!(data_rows(&report).len(), RATES.len(), "{report}");
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(fault_sweep_report(true), fault_sweep_report(true));
    }

    #[test]
    fn zero_rate_row_is_fault_free_and_top_rate_row_is_not() {
        let report = fault_sweep_report(true);
        let rows = data_rows(&report);
        let zero = &rows[0];
        assert_eq!(zero[0], "0");
        for counter in &zero[4..9] {
            assert_eq!(counter, "0", "inert plan must not fault: {report}");
        }
        assert_eq!(zero[9], "healthy");
        assert_eq!(zero[10], "-");

        let top = rows.last().unwrap();
        let retries: u64 = top[4].parse().unwrap();
        let failures: u64 = top[5].parse().unwrap();
        let retired: u64 = top[7].parse().unwrap();
        assert!(retries > 0, "top rate must retry reads: {report}");
        assert!(failures > 0, "top rate must fail programs: {report}");
        assert!(retired > 0, "top rate must retire blocks: {report}");
    }
}
