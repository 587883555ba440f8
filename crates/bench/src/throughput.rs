//! Simulator-throughput measurement: vector instructions simulated per
//! wall-clock second, plus the parallel-vs-serial sweep speedup.
//!
//! This is the number the perf trajectory tracks (`BENCH_sim_throughput.json`
//! at the repository root, emitted by `repro sim-throughput`): it bounds how
//! fast the whole figure-regeneration pipeline can go and directly reflects
//! hot-path work like cost-feature collection and energy accounting.
//!
//! The CI gate (`repro perf-gate`) no longer compares wall-clock throughput
//! — that number depends on whatever machine CI lands on. It gates on
//! [`ThroughputReport::ops_per_instruction`], the *simulated device
//! operations per vector instruction*: a deterministic counter that grows
//! exactly when a change makes the simulator do more work per instruction
//! (extra data movement, redundant reservations, duplicated model calls)
//! and is identical on every machine. Wall-clock throughput is still
//! measured and recorded for the human-readable trajectory.
//!
//! The measurement itself exercises the service API the way a server would:
//! each workload is vectorized once, registered in a
//! [`conduit::Session`], and then resubmitted via [`conduit::RunRequest`]s
//! (summary-only, using the repeat knob) without ever re-running the
//! vectorizer.

use std::time::Instant;

use conduit::{Policy, RunRequest, Session};
use conduit_types::SsdConfig;
use conduit_workloads::{Scale, Workload};

use crate::micro::{black_box, results_to_json, BenchResult};
use crate::Harness;

/// The measured simulator throughput and sweep scaling.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputReport {
    /// Whether this was a quick-scale (test-sized) measurement rather than
    /// paper scale. Recorded in the JSON so `repro perf-gate` refuses to
    /// compare measurements taken at different scales.
    pub quick: bool,
    /// Vector instructions simulated during the timed section (all
    /// passes).
    pub instructions: u64,
    /// Wall-clock seconds of the timed section (all passes).
    pub wall_seconds: f64,
    /// Instructions simulated per second over the whole timed section (the
    /// headline number).
    pub instructions_per_sec: f64,
    /// Timed passes over the workload set; each pass is timed on its own
    /// so the spread below is real.
    pub passes: usize,
    /// First quartile of the per-pass instructions per second.
    pub instructions_per_sec_q1: f64,
    /// Median of the per-pass instructions per second.
    pub instructions_per_sec_median: f64,
    /// Third quartile of the per-pass instructions per second.
    pub instructions_per_sec_q3: f64,
    /// Simulated device operations (contended-timeline reservations) the
    /// timed section performed. Fully deterministic for a given code
    /// version: the same program stream always schedules the same
    /// operations, on any machine.
    pub sim_device_ops: u64,
    /// `sim_device_ops / instructions` — the machine-independent
    /// simulated-work metric `repro perf-gate` gates on (wall-clock
    /// throughput varies with the CI machine; this does not).
    pub ops_per_instruction: f64,
    /// Strip-plan cache hits of the measurement's session.
    pub plan_cache_hits: u64,
    /// Strip-plan cache misses (planner runs) of the session.
    pub plan_cache_misses: u64,
    /// Inline-program runs that bypassed the plan cache (always 0 here —
    /// the measurement only submits registered programs).
    pub plan_cache_inline: u64,
    /// Fresh runs that built and prepared their own device, over the
    /// measurement's session and both figure-sweep sessions.
    pub prepared_builds: u64,
    /// Fresh runs that got a copy of their batch's prepared device instead
    /// of building one, over the same sessions. Each 66-pair figure sweep
    /// adds 6 builds and 60 clones: one prepared device per workload, shared
    /// by its other ten policy runs.
    pub prepared_clones: u64,
    /// Wall-clock seconds of the full figure sweep run serially.
    pub sweep_serial_seconds: f64,
    /// Wall-clock seconds of the same sweep with the parallel harness.
    pub sweep_parallel_seconds: f64,
    /// `sweep_serial_seconds / sweep_parallel_seconds`.
    pub parallel_speedup: f64,
    /// Per-policy single-run timings of the probe workload.
    pub per_policy: Vec<BenchResult>,
}

impl ThroughputReport {
    /// Measures throughput at the reduced test scale (fast; used by the
    /// bench target and CI) or the paper scale, including the serial and
    /// parallel figure sweeps.
    pub fn measure(quick: bool) -> ThroughputReport {
        Self::measure_with_sweeps(quick, true)
    }

    /// Measures only the timed per-workload section and the per-policy
    /// probes, skipping the two full figure sweeps. This is all
    /// `repro perf-gate` needs — the gate reads the deterministic
    /// `ops_per_instruction` counter, and the sweep timings it skips are
    /// informational — so the CI gate step avoids re-simulating every
    /// (workload, policy) pair that the figure-smoke step already ran. The
    /// sweep fields are zero in the result.
    pub fn measure_counters_only(quick: bool) -> ThroughputReport {
        Self::measure_with_sweeps(quick, false)
    }

    fn measure_with_sweeps(quick: bool, sweeps: bool) -> ThroughputReport {
        let (cfg, scale) = if quick {
            (SsdConfig::small_for_tests(), Scale::test())
        } else {
            (SsdConfig::default(), Scale::new(4, 1))
        };

        // --- raw engine throughput: Conduit policy over every workload ----
        // Register every workload program once; the timed section reuses
        // them straight from the registry (summary-only requests: the run
        // loop is measured, not timeline allocation).
        let mut session = Session::builder(cfg.clone()).serial().build();
        let ids: Vec<_> = Workload::ALL
            .iter()
            .map(|w| {
                let program = w.program(scale).expect("generators always succeed");
                session
                    .register(program)
                    .expect("generated programs always validate")
            })
            .collect();
        // One untimed pass to warm caches and page tables.
        for &id in &ids {
            black_box(
                session
                    .submit(&RunRequest::new(id, Policy::Conduit))
                    .expect("simulation cannot fail"),
            );
        }
        // A single ~20 ms pass swings widely between runs, so the section
        // is timed pass by pass and the spread recorded alongside the total.
        const PASSES: usize = 5;
        let repeats = if quick { 3 } else { 1 };
        let mut instructions = 0u64;
        let mut sim_device_ops = 0u64;
        let mut wall_seconds = 0.0;
        let mut pass_rates = Vec::with_capacity(PASSES);
        for _ in 0..PASSES {
            let mut pass_instructions = 0u64;
            let t = Instant::now();
            for &id in &ids {
                let outcome = session
                    .submit(&RunRequest::new(id, Policy::Conduit).repeat(repeats))
                    .expect("simulation cannot fail");
                pass_instructions +=
                    outcome.summary.instructions as u64 * outcome.summary.repeats as u64;
                sim_device_ops += outcome.summary.device_delta.device_ops;
                black_box(outcome);
            }
            let pass_seconds = t.elapsed().as_secs_f64();
            instructions += pass_instructions;
            wall_seconds += pass_seconds;
            pass_rates.push(pass_instructions as f64 / pass_seconds.max(1e-12));
        }
        pass_rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));

        // --- per-policy probe timings (jacobi-1d, sampled) ----------------
        // Each policy is timed over several independent submissions so the
        // recorded spread is real; a single-sample row would make the
        // min/median/max fields degenerate copies of the mean. Besides the
        // host baseline and Ideal, the probe covers every policy whose host
        // time the resource-pool queries shape: PuD-SSD (unit selection
        // across the DRAM subarrays), BW-Offloading (pool utilizations) and
        // the queue-delay readers DM-Offloading and Conduit.
        const PROBE_SAMPLES: usize = 5;
        let probe = ids[Workload::ALL
            .iter()
            .position(|&w| w == Workload::Jacobi1d)
            .expect("jacobi-1d is in ALL")];
        let mut per_policy = Vec::new();
        for policy in [
            Policy::HostCpu,
            Policy::PudSsd,
            Policy::BwOffloading,
            Policy::DmOffloading,
            Policy::Conduit,
            Policy::Ideal,
        ] {
            let mut samples_ns: Vec<f64> = Vec::with_capacity(PROBE_SAMPLES);
            for _ in 0..PROBE_SAMPLES {
                let t = Instant::now();
                let outcome = session
                    .submit(&RunRequest::new(probe, policy))
                    .expect("simulation cannot fail");
                samples_ns.push(t.elapsed().as_secs_f64() * 1e9);
                black_box(outcome);
            }
            samples_ns.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
            per_policy.push(BenchResult {
                name: format!("jacobi1d/{policy}"),
                samples: samples_ns.len(),
                batch: 1,
                mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
                median_ns: samples_ns[samples_ns.len() / 2],
                min_ns: samples_ns[0],
                max_ns: *samples_ns.last().expect("at least one sample"),
            });
        }

        // --- full figure sweep: serial vs parallel harness ----------------
        let plan_stats = session.plan_cache_stats();
        let mut prepared_builds = plan_stats.prepared_builds;
        let mut prepared_clones = plan_stats.prepared_clones;
        let (sweep_serial_seconds, sweep_parallel_seconds) = if sweeps {
            let t = Instant::now();
            let mut serial = Harness::new(cfg.clone(), scale).with_parallel(false);
            serial.prefetch_all();
            let sweep_serial_seconds = t.elapsed().as_secs_f64();

            let t = Instant::now();
            let mut parallel = Harness::new(cfg, scale).with_parallel(true);
            parallel.prefetch_all();
            let sweep_parallel_seconds = t.elapsed().as_secs_f64();
            for harness in [&serial, &parallel] {
                let stats = harness.session().plan_cache_stats();
                prepared_builds += stats.prepared_builds;
                prepared_clones += stats.prepared_clones;
            }
            (sweep_serial_seconds, sweep_parallel_seconds)
        } else {
            (0.0, 0.0)
        };

        ThroughputReport {
            quick,
            instructions,
            wall_seconds,
            instructions_per_sec: instructions as f64 / wall_seconds.max(1e-12),
            passes: PASSES,
            // Five sorted samples: ranks 1, 2 and 3 are the quartiles.
            instructions_per_sec_q1: pass_rates[PASSES / 4],
            instructions_per_sec_median: pass_rates[PASSES / 2],
            instructions_per_sec_q3: pass_rates[3 * PASSES / 4],
            sim_device_ops,
            ops_per_instruction: sim_device_ops as f64 / (instructions.max(1)) as f64,
            plan_cache_hits: plan_stats.hits,
            plan_cache_misses: plan_stats.misses,
            plan_cache_inline: plan_stats.inline,
            prepared_builds,
            prepared_clones,
            sweep_serial_seconds,
            sweep_parallel_seconds,
            parallel_speedup: if sweeps {
                sweep_serial_seconds / sweep_parallel_seconds.max(1e-12)
            } else {
                0.0
            },
            per_policy,
        }
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "# Simulator throughput\n\
             instructions simulated: {}\n\
             wall seconds:           {:.3}\n\
             instructions/sec:       {:.0}\n\
             per-pass inst/sec:      {:.0} median, {:.0}–{:.0} interquartile ({} passes)\n\
             sim device ops:         {}\n\
             ops/instruction:        {:.4}\n\
             plan cache:             {} hits / {} misses / {} inline ({:.0}% hit rate)\n\
             prepared devices:       {} builds / {} clones\n\
             sweep serial:           {:.3} s\n\
             sweep parallel:         {:.3} s\n\
             parallel speedup:       {:.2}x\n",
            self.instructions,
            self.wall_seconds,
            self.instructions_per_sec,
            self.instructions_per_sec_median,
            self.instructions_per_sec_q1,
            self.instructions_per_sec_q3,
            self.passes,
            self.sim_device_ops,
            self.ops_per_instruction,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.plan_cache_inline,
            100.0 * self.plan_cache_hits as f64
                / ((self.plan_cache_hits + self.plan_cache_misses).max(1)) as f64,
            self.prepared_builds,
            self.prepared_clones,
            self.sweep_serial_seconds,
            self.sweep_parallel_seconds,
            self.parallel_speedup
        )
    }

    /// The JSON document written to `BENCH_sim_throughput.json`.
    pub fn to_json(&self) -> String {
        results_to_json(
            &self.per_policy,
            &[
                (
                    "scale",
                    format!("\"{}\"", if self.quick { "quick" } else { "paper" }),
                ),
                ("instructions", self.instructions.to_string()),
                ("wall_seconds", format!("{:.6}", self.wall_seconds)),
                (
                    "instructions_per_sec",
                    format!("{:.1}", self.instructions_per_sec),
                ),
                ("passes", self.passes.to_string()),
                (
                    "instructions_per_sec_q1",
                    format!("{:.1}", self.instructions_per_sec_q1),
                ),
                (
                    "instructions_per_sec_median",
                    format!("{:.1}", self.instructions_per_sec_median),
                ),
                (
                    "instructions_per_sec_q3",
                    format!("{:.1}", self.instructions_per_sec_q3),
                ),
                ("sim_device_ops", self.sim_device_ops.to_string()),
                (
                    "ops_per_instruction",
                    format!("{:.6}", self.ops_per_instruction),
                ),
                ("plan_cache_hits", self.plan_cache_hits.to_string()),
                ("plan_cache_misses", self.plan_cache_misses.to_string()),
                ("prepared_builds", self.prepared_builds.to_string()),
                ("prepared_clones", self.prepared_clones.to_string()),
                (
                    "sweep_serial_seconds",
                    format!("{:.6}", self.sweep_serial_seconds),
                ),
                (
                    "sweep_parallel_seconds",
                    format!("{:.6}", self.sweep_parallel_seconds),
                ),
                ("parallel_speedup", format!("{:.3}", self.parallel_speedup)),
            ],
        )
    }
}

/// Extracts a bare numeric field from a `BENCH_sim_throughput.json`
/// document (no JSON parser is available offline; the fields are written by
/// [`ThroughputReport::to_json`] as bare numbers). Returns `None` if the
/// field is missing or malformed.
fn baseline_number(json: &str, field: &str) -> Option<f64> {
    let key = format!("\"{field}\":");
    let start = json.find(&key)? + key.len();
    let rest = json[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `instructions_per_sec` field of a baseline document (wall-clock
/// throughput; informational since the gate moved to simulated-work
/// counters).
pub fn baseline_instructions_per_sec(json: &str) -> Option<f64> {
    baseline_number(json, "instructions_per_sec")
}

/// The `ops_per_instruction` field of a baseline document: the
/// deterministic simulated-work metric `repro perf-gate` compares against.
/// Baselines written before the field existed return `None` (the gate asks
/// for a regeneration).
pub fn baseline_ops_per_instruction(json: &str) -> Option<f64> {
    baseline_number(json, "ops_per_instruction")
}

/// Extracts the `scale` field (`"paper"` or `"quick"`) from a
/// `BENCH_sim_throughput.json` document. Documents written before the field
/// existed return `None`; callers should treat that as paper scale, which is
/// what the committed baseline has always been.
pub fn baseline_scale(json: &str) -> Option<&str> {
    let key = "\"scale\":";
    let start = json.find(key)? + key.len();
    let rest = json[start..].trim_start().strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_measurement_produces_consistent_numbers() {
        let r = ThroughputReport::measure(true);
        assert!(r.instructions > 0);
        assert!(r.instructions_per_sec > 0.0);
        assert_eq!(r.passes, 5);
        assert!(r.instructions_per_sec_q1 > 0.0);
        assert!(r.instructions_per_sec_q1 <= r.instructions_per_sec_median);
        assert!(r.instructions_per_sec_median <= r.instructions_per_sec_q3);
        assert!(r.sweep_serial_seconds > 0.0);
        assert!(r.sweep_parallel_seconds > 0.0);
        assert_eq!(r.per_policy.len(), 6);
        // The probe rows carry a real sample spread, not degenerate
        // single-sample copies.
        for p in &r.per_policy {
            assert!(p.samples >= 5, "{}: only {} samples", p.name, p.samples);
            assert!(p.min_ns <= p.median_ns && p.median_ns <= p.max_ns);
            assert!(p.min_ns <= p.mean_ns && p.mean_ns <= p.max_ns);
        }
        assert!(r.sim_device_ops > 0);
        assert!(r.ops_per_instruction > 0.0);
        // Every (program, policy) key planned once — every workload under
        // Conduit, plus five more policy keys for the jacobi-1d probes.
        // Re-planned never: the warm-up and timed passes hit the cache.
        assert_eq!(
            r.plan_cache_misses,
            conduit_workloads::Workload::ALL.len() as u64 + 5
        );
        assert!(r.plan_cache_hits >= r.plan_cache_misses);
        assert_eq!(r.plan_cache_inline, 0);
        // Every measurement submit builds one device; at quick scale each
        // timed submit repeats three times, and its other two repeats clone
        // it. Each figure sweep prepares one device per workload, cloned by
        // the workload's other policy runs.
        let workloads = conduit_workloads::Workload::ALL.len() as u64;
        let policies = Policy::ALL.len() as u64;
        let probes: u64 = r.per_policy.iter().map(|p| p.samples as u64).sum();
        let submits = workloads * (1 + r.passes as u64) + probes;
        assert_eq!(r.prepared_builds, submits + 2 * workloads);
        assert_eq!(
            r.prepared_clones,
            workloads * r.passes as u64 * 2 + 2 * workloads * (policies - 1)
        );
        let json = r.to_json();
        assert!(json.contains("\"instructions_per_sec\""));
        assert!(json.contains("\"parallel_speedup\""));
        assert!(json.contains("\"sim_device_ops\""));
        assert!(json.contains("\"plan_cache_hits\""));
        for field in ["prepared_builds", "prepared_clones"] {
            assert!(baseline_number(&json, field).is_some(), "{field} missing");
        }
        for field in ["q1", "median", "q3"] {
            let key = format!("instructions_per_sec_{field}");
            assert!(baseline_number(&json, &key).is_some(), "{key} missing");
        }
        assert!(r.summary().contains("instructions/sec"));
        assert!(r.summary().contains("ops/instruction"));
        assert!(r.summary().contains("plan cache"));
        assert!(r.summary().contains("prepared devices"));
        // The perf gate can read back what we wrote.
        let parsed = baseline_instructions_per_sec(&json).expect("field is present");
        assert!((parsed - r.instructions_per_sec).abs() <= 0.05 * r.instructions_per_sec + 0.1);
        let ops = baseline_ops_per_instruction(&json).expect("field is present");
        assert!((ops - r.ops_per_instruction).abs() <= 1e-5);
        // The simulated-work metric is deterministic: re-running one of the
        // timed submits sees exactly the same per-run counter even though
        // wall clock differs. (Cheaper than a second full measure(), which
        // would repeat both figure sweeps.)
        let mut session = Session::builder(SsdConfig::small_for_tests())
            .serial()
            .build();
        let id = session
            .register(Workload::Jacobi1d.program(Scale::test()).unwrap())
            .unwrap();
        let a = session
            .submit(&RunRequest::new(id, Policy::Conduit))
            .unwrap();
        let b = session
            .submit(&RunRequest::new(id, Policy::Conduit))
            .unwrap();
        assert_eq!(
            a.summary.device_delta.device_ops,
            b.summary.device_delta.device_ops
        );
        assert!(a.summary.device_delta.device_ops > 0);
    }

    #[test]
    fn counters_only_measurement_skips_the_sweeps() {
        let r = ThroughputReport::measure_counters_only(true);
        assert!(r.instructions > 0);
        assert!(r.sim_device_ops > 0);
        assert_eq!(r.sweep_serial_seconds, 0.0);
        assert_eq!(r.sweep_parallel_seconds, 0.0);
        // The gated counter is identical to the full measurement's.
        assert!(
            (r.ops_per_instruction - ThroughputReport::measure(true).ops_per_instruction).abs()
                < 1e-12
        );
    }

    #[test]
    fn baseline_parser_handles_real_and_bad_documents() {
        assert_eq!(
            baseline_instructions_per_sec("{\n  \"instructions_per_sec\": 177000.5,\n}"),
            Some(177000.5)
        );
        assert_eq!(
            baseline_instructions_per_sec("{\"instructions_per_sec\": 42}"),
            Some(42.0)
        );
        assert_eq!(baseline_instructions_per_sec("{}"), None);
        assert_eq!(
            baseline_ops_per_instruction("{\"ops_per_instruction\": 6.25}"),
            Some(6.25)
        );
        // Pre-counter baselines (PR 2 format) report None.
        assert_eq!(
            baseline_ops_per_instruction("{\"instructions_per_sec\": 1.0}"),
            None
        );
        assert_eq!(
            baseline_instructions_per_sec("{\"instructions_per_sec\": \"oops\"}"),
            None
        );
    }

    #[test]
    fn scale_field_roundtrips_and_parses() {
        assert_eq!(baseline_scale("{\"scale\": \"paper\",}"), Some("paper"));
        assert_eq!(baseline_scale("{\"scale\": \"quick\"}"), Some("quick"));
        // Pre-scale-field documents (PR 1 format) report None.
        assert_eq!(baseline_scale("{\"instructions_per_sec\": 1.0}"), None);
        let quick = ThroughputReport {
            quick: true,
            instructions: 1,
            wall_seconds: 1.0,
            instructions_per_sec: 1.0,
            passes: 1,
            instructions_per_sec_q1: 1.0,
            instructions_per_sec_median: 1.0,
            instructions_per_sec_q3: 1.0,
            sim_device_ops: 1,
            ops_per_instruction: 1.0,
            plan_cache_hits: 1,
            plan_cache_misses: 1,
            plan_cache_inline: 0,
            prepared_builds: 1,
            prepared_clones: 0,
            sweep_serial_seconds: 1.0,
            sweep_parallel_seconds: 1.0,
            parallel_speedup: 1.0,
            per_policy: Vec::new(),
        };
        assert_eq!(baseline_scale(&quick.to_json()), Some("quick"));
    }
}
