//! The `repro` command line: malformed invocations fail with the usage line
//! and exit code 2 before anything is simulated, and `perf-gate` passes at
//! the committed baseline.

use std::process::{Command, Output};

use conduit_bench::throughput::BASELINE_OPS_PER_INSTRUCTION;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("the repro binary runs")
}

/// Asserts that `args` exit 2 with `problem` and the usage line on stderr
/// and nothing on stdout.
fn assert_usage_error(args: &[&str], problem: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(problem), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro <"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed output");
}

#[test]
fn malformed_command_lines_are_rejected() {
    assert_usage_error(&[], "no target given");
    assert_usage_error(&["--quick"], "no target given");
    assert_usage_error(&["fig4", "--quik"], "unknown flag `--quik`");
    assert_usage_error(&["--serail", "all", "--quick"], "unknown flag `--serail`");
    assert_usage_error(&["table3", "fig4", "--quick"], "unexpected argument `fig4`");
}

#[test]
fn perf_gate_takes_no_flags() {
    for flag in ["--quick", "--smoke", "--serial"] {
        assert_usage_error(&["perf-gate", flag], "perf-gate takes no flags");
    }
    for flag in ["--baseline", "--threshold"] {
        assert_usage_error(&["perf-gate", flag], &format!("unknown flag `{flag}`"));
    }
}

#[test]
fn perf_gate_passes_at_the_committed_baseline() {
    let out = repro(&["perf-gate"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = format!("device ops/instruction vs baseline {BASELINE_OPS_PER_INSTRUCTION:.6}");
    assert!(stdout.contains(&baseline), "{stdout}");
    assert!(stdout.ends_with("perf-gate: OK\n"), "{stdout}");
}
