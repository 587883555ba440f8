//! Regenerates the tables and figures of the Conduit evaluation.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p conduit-bench --bin repro -- <target> [--quick|--smoke] [--serial]
//! ```
//!
//! where `<target>` is an entry of the `TARGETS` table below (run with an
//! unknown target to get the full annotated list).
//!
//! Flags:
//!
//! * `--quick` uses the reduced test scale (useful for smoke runs;
//!   `--smoke` is an alias, used by the CI warm-pool step),
//! * `--serial` disables the parallel (workload, policy) fan-out (the
//!   default runs one simulation per CPU core; results are bit-identical),
//! * `warm-pool` runs a multi-tenant request mix on four **named warm
//!   devices** (per-device FIFO lanes, parallel across devices) and prints
//!   each request's queueing/service split plus every device's cumulative
//!   FTL/coherence/GC/wear state,
//! * `arrival-sweep` sweeps **open-loop offered load** per tenant
//!   (`RunRequest::arriving_at` at a fixed inter-arrival interval) and
//!   prints the queueing-delay-vs-load curve with per-lane occupancy,
//! * `fault-sweep` sweeps the **raw flash failure rate** under a seeded
//!   fault plan on a write-heavy warm device and prints tail latency,
//!   retry/remap counters and the request index at which the spare-block
//!   budget ran out (time-to-degraded); the zero-rate row is bit-identical
//!   to a session without fault injection,
//! * `interference` co-schedules two latency-sensitive victim tenants
//!   against a bursty Markov-modulated antagonist on a shared vs isolated
//!   warm device (via a replayable `conduit-traffic` trace), sweeping the
//!   antagonist's in-burst offered load and printing victim p50/p99/p999,
//!   lane occupancy/queueing and GC/coherence counters per point,
//! * `fleet-sweep` replays one multi-tenant CTR1 trace through the
//!   `conduit-fleet` front-end at shard counts {1, 2, 4, 8}, printing
//!   fleet-wide p50/p99/p999, per-shard device/occupancy spread and
//!   admission-control shed counts (merged rows are bit-identical across
//!   shard counts),
//! * `perf-gate` runs every workload once under Conduit at paper scale and
//!   **fails (exit 1)** if the deterministic **simulated-work counter**
//!   (device operations per vector instruction) lies more than 15% above or
//!   below `BASELINE_OPS_PER_INSTRUCTION` in `conduit_bench::throughput`.
//!   More work per instruction is a perf regression; less usually means
//!   device operations silently stopped being issued. The counter is
//!   machine-independent, so the gate is immune to CI machine variance. It
//!   takes no flags.
//!
//! A missing target, an unknown flag, a second positional argument or a flag
//! given to `perf-gate` prints the usage line and exits 2.

use conduit_bench::arrivals::arrival_sweep_report;
use conduit_bench::faults::fault_sweep_report;
use conduit_bench::fleet::fleet_sweep_report;
use conduit_bench::interference::interference_report;
use conduit_bench::throughput::{check, WorkCount, BASELINE_OPS_PER_INSTRUCTION, TOLERANCE};
use conduit_bench::warm::warm_pool_report;
use conduit_bench::{section, Harness};

/// Every target the binary accepts, with a one-line description. The
/// usage line and the unknown-target listing are both generated from this
/// table, so adding a target here is the whole registration step (the
/// free-text help drifted out of date more than once before).
const TARGETS: &[(&str, &str)] = &[
    ("fig4", "per-instruction offload mix case study"),
    ("fig5", "motivation: naive IFP+ISP vs host baselines"),
    ("fig7", "speedup and energy, both panels"),
    ("fig7a", "speedup over host CPU"),
    ("fig7b", "energy vs host CPU"),
    ("fig8", "tail latency CDFs"),
    ("fig9", "offload-ratio sweep"),
    ("fig10", "execution timelines"),
    ("table3", "per-workload characterization"),
    ("overheads", "runtime latency/storage overheads"),
    ("headline", "paper-abstract headline numbers"),
    ("warm-pool", "multi-tenant warm-device pool report"),
    ("arrival-sweep", "open-loop offered-load sweep"),
    ("fault-sweep", "raw flash failure-rate sweep"),
    ("interference", "bursty antagonist vs victim tenants"),
    (
        "fleet-sweep",
        "sharded fleet at fixed load, shard count swept",
    ),
    ("perf-gate", "gate on device ops/instruction vs baseline"),
    ("all", "every figure and table above"),
];

fn print_usage() {
    let names: Vec<&str> = TARGETS.iter().map(|(name, _)| *name).collect();
    eprintln!(
        "usage: repro <{}> [--quick|--smoke] [--serial]",
        names.join("|")
    );
}

fn print_targets() {
    eprintln!("available targets:");
    for (name, what) in TARGETS {
        eprintln!("  {name:<15} {what}");
    }
}

/// Names what is wrong with the command line, prints the usage line and
/// exits 2.
fn usage_error(problem: &str) -> ! {
    eprintln!("repro: {problem}");
    print_usage();
    std::process::exit(2);
}

fn perf_gate() -> ! {
    let count = WorkCount::paper();
    let measured = count.ops_per_instruction();
    let baseline = BASELINE_OPS_PER_INSTRUCTION;
    println!(
        "perf-gate: {} device ops over {} instructions",
        count.device_ops, count.instructions
    );
    println!(
        "perf-gate: measured {measured:.6} device ops/instruction vs baseline {baseline:.6} \
         (allowed [{:.6}, {:.6}] at {:.0}% tolerance)",
        baseline * (1.0 - TOLERANCE),
        baseline * (1.0 + TOLERANCE),
        TOLERANCE * 100.0
    );
    match check(measured) {
        Ok(()) => {
            println!("perf-gate: OK");
            std::process::exit(0);
        }
        Err(why) => {
            eprintln!("perf-gate: FAIL — {why}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut quick = false;
    let mut serial = false;
    let mut target: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" | "--smoke" => quick = true,
            "--serial" => serial = true,
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            _ if target.is_some() => usage_error(&format!("unexpected argument `{arg}`")),
            _ => target = Some(arg),
        }
    }

    let Some(target) = target else {
        usage_error("no target given");
    };

    if target == "perf-gate" {
        if quick || serial {
            usage_error("perf-gate takes no flags");
        }
        perf_gate();
    }

    let report: Option<fn(bool) -> String> = match target.as_str() {
        "warm-pool" => Some(warm_pool_report),
        "arrival-sweep" => Some(arrival_sweep_report),
        "fault-sweep" => Some(fault_sweep_report),
        "interference" => Some(interference_report),
        "fleet-sweep" => Some(fleet_sweep_report),
        _ => None,
    };
    if let Some(report) = report {
        print!("{}", section(&target, &report(quick)));
        return;
    }

    let mut harness = if quick {
        Harness::quick()
    } else {
        Harness::paper()
    };
    harness = harness.with_parallel(!serial);
    let outputs: Vec<(&str, String)> = match target.as_str() {
        "all" => {
            print!("{}", harness.all());
            return;
        }
        "fig4" => vec![("fig4", harness.fig4())],
        "fig5" => vec![("fig5", harness.fig5())],
        "fig7" => vec![("fig7a", harness.fig7a()), ("fig7b", harness.fig7b())],
        "fig7a" => vec![("fig7a", harness.fig7a())],
        "fig7b" => vec![("fig7b", harness.fig7b())],
        "fig8" => vec![("fig8", harness.fig8())],
        "fig9" => vec![("fig9", harness.fig9())],
        "fig10" => vec![("fig10", harness.fig10())],
        "table3" => vec![("table3", harness.table3())],
        "overheads" => vec![("overheads", harness.overheads())],
        "headline" => vec![("headline", harness.headline())],
        unknown => {
            eprintln!("repro: unknown target `{unknown}`");
            print_targets();
            std::process::exit(2);
        }
    };

    for (name, text) in outputs {
        print!("{}", section(name, &format!("{text}\n")));
    }
}
