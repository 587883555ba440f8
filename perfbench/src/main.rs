//! The repository benchmark: three workloads, end-to-end metrics from
//! untraced runs, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload figure-sweep|warm-rewrite|fleet-trace \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `NOTES.md` next to this file for what each workload measures.

mod fidelity;
mod figure_sweep;
mod fleet_trace;
mod metrics;
mod scenario;
mod spans;
mod split;
mod stats;
mod warm_rewrite;

use std::process::ExitCode;
use std::time::Instant;

use conduit_sim::DeviceSnapshot;

use crate::figure_sweep::FigureSweep;
use crate::fleet_trace::FleetTrace;
use conduit::Policy;
use conduit_workloads::Workload;

use crate::metrics::{policy_metric, workload_metric, Metrics, END_TO_END, PER_LAYER};
use crate::scenario::{nproc, Iter, Scenario, Size};
use crate::spans::Tracer;
use crate::stats::{median, percentile, quartiles};
use crate::warm_rewrite::WarmRewrite;

const USAGE: &str = "usage: perfbench --workload figure-sweep|warm-rewrite|fleet-trace \
                     [--seed N] [--seconds S] [--trace 0|1]";

const WORKLOADS: [&str; 3] = ["figure-sweep", "warm-rewrite", "fleet-trace"];

/// Environment switches that change which engine run loop is measured.
const REFUSED_ENV: [&str; 2] = ["CONDUIT_SCALAR", "CONDUIT_SEQ_STRIPS"];

/// Set-ups per run: one before timing, the rest spread evenly over the
/// untraced timed phase. `setup_s` is the fastest of them, for the reason
/// `best_rate` gives; spreading them lets it see the same stretch of host
/// time as `inst_per_s` rather than the few seconds before it.
const SETUP_REPS: usize = 20;
/// `inst_per_s`: one iteration's instructions over the sum, across its
/// timed parts, of each part's fastest time in any iteration. Iterations
/// repeat the same work, and interference on a shared host only ever slows
/// a part down, in bursts shorter than an iteration; the fastest time of
/// each part tracks the program's own cost far more steadily than any
/// whole-iteration statistic (NOTES.md has the measurements). Failed
/// iterations are left out.
fn best_rate(iters: &[Iter]) -> f64 {
    let ok: Vec<&Iter> = iters.iter().filter(|i| i.failed == 0).collect();
    let Some(first) = ok.first() else {
        return 0.0;
    };
    let best: f64 = (0..first.parts.len())
        .map(|k| ok.iter().map(|i| i.parts[k]).fold(f64::INFINITY, f64::min))
        .sum();
    first.instructions as f64 / best
}
/// Fewest timed iterations per phase, however long they take.
const MIN_ITERATIONS: usize = 5;
/// Most spans written to the trace file.
const SPAN_FILE_LIMIT: usize = 200_000;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: "",
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    out.workload = WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload {value:?}"))?
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for --trace: {value}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if !(out.seconds > 0.0 && out.seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(out)
    }
}

/// What one run reports.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    correct: bool,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for var in REFUSED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!(
                "refusing to run: {var} is set, and it changes which engine run loop is measured"
            );
            return ExitCode::from(2);
        }
    }
    let outcome = match args.workload {
        "figure-sweep" => run::<FigureSweep>(&args, Size::Full),
        "warm-rewrite" => run::<WarmRewrite>(&args, Size::Full),
        _ => run::<FleetTrace>(&args, Size::Full),
    };
    for (name, unit, value) in outcome.metrics.rows() {
        println!("{name} = {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.json()
    );
    ExitCode::SUCCESS
}

/// Runs a phase of timed iterations for at least `seconds` of wall time.
fn measure(seconds: f64, mut iteration: impl FnMut(usize) -> Iter) -> Vec<Iter> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        out.push(iteration(out.len()));
    }
    out
}

fn rates(iters: &[Iter]) -> Vec<f64> {
    iters.iter().map(Iter::inst_per_s).collect()
}

/// One timed set-up; appends its host seconds and reference digest.
fn set_up<S: Scenario>(
    args: &Args,
    size: Size,
    tracer: &mut Tracer,
    setups: &mut Vec<(f64, u64)>,
) -> S {
    let start = Instant::now();
    let rep = setups.len() as u64 + 1;
    let bench = tracer.span("setup", [args.workload, ""], rep, |t| {
        S::setup(size, args.seed, t)
    });
    setups.push((start.elapsed().as_secs_f64(), bench.reference_digest()));
    bench
}

fn run<S: Scenario>(args: &Args, size: Size) -> Outcome {
    let mut tracer = Tracer::new();
    let mut setups = Vec::new();
    let mut bench = set_up::<S>(args, size, &mut tracer, &mut setups);
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        bench.describe()
    );

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut off = Tracer::off();
    let start = Instant::now();
    let mut untraced = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if untraced.len() >= MIN_ITERATIONS && elapsed >= budget && setups.len() == SETUP_REPS {
            break;
        }
        if setups.len() < SETUP_REPS && elapsed >= budget * setups.len() as f64 / SETUP_REPS as f64
        {
            // Dropped first, so that no two instances share the peak.
            drop(bench);
            bench = set_up::<S>(args, size, &mut tracer, &mut setups);
        }
        untraced.push(bench.run(&mut off, 0));
    }
    let (setups, setup_digests): (Vec<f64>, Vec<u64>) = setups.into_iter().unzip();
    let peak_rss_mb = peak_rss_mb();
    let mut iters = untraced.clone();
    let mut metrics;
    let (mut attempted, mut failed) = (0, 0);
    if args.trace {
        metrics = Metrics::new(PER_LAYER);
        let traced = measure(budget, |k| {
            bench.run(&mut tracer, (k as u64 + 1) * 10_000_000)
        });
        let (a, f) = bench.layers(&mut tracer, &mut metrics);
        attempted += a;
        failed += f;
        let overhead = 1.0 - best_rate(&traced) / best_rate(&untraced);
        metrics.set("trace.overhead_frac", overhead);
        metrics.set(
            "workloads.program_ms",
            median(&tracer.group_sums("setup", "workloads.program")) / 1e6,
        );
        metrics.set(
            "session.register_ms",
            median(&tracer.group_sums("setup", "session.register")) / 1e6,
        );
        let fidelity = bench.fidelity();
        for (i, term) in fidelity.terms().iter().enumerate() {
            metrics.set(&format!("fidelity.{}", fidelity::PAPER[i].0), *term);
        }
        print_layers(&tracer, &traced);
        write_spans(&tracer, args);
        iters.extend(traced);
    } else {
        metrics = Metrics::new(&END_TO_END);
        let fidelity = bench.fidelity();
        metrics.set("inst_per_s", best_rate(&untraced));
        metrics.set(
            "setup_s",
            setups.iter().copied().fold(f64::INFINITY, f64::min),
        );
        metrics.set("peak_rss_mb", peak_rss_mb);
        metrics.set("paper_error", fidelity.paper_error());
        for (i, (name, paper)) in fidelity::PAPER.iter().enumerate() {
            println!(
                "# fidelity {name}: measured {:.4} paper {paper} |ln| {:.4}",
                fidelity.measured[i],
                fidelity.terms()[i]
            );
        }
    }
    for it in &iters {
        attempted += it.attempted;
        failed += it.failed;
    }
    let r = rates(&untraced);
    let q = quartiles(&r).unwrap_or([0.0; 3]);
    println!(
        "# untraced iterations={} per-iteration inst_per_s q1={:.0} median={:.0} q3={:.0}; best_parts={:.0}; setup_s reps={:?}",
        r.len(),
        q[0],
        q[1],
        q[2],
        best_rate(&untraced),
        setups
    );
    let digests_agree = setup_digests.iter().all(|&d| d == setup_digests[0]);
    println!(
        "# digest={:#018x} (set-ups agree: {digests_agree}); error_rate = {} ratio ({failed} failed of {attempted} requests)",
        bench.reference_digest(),
        failed as f64 / attempted.max(1) as f64
    );
    Outcome {
        correct: failed == 0 && digests_agree && metrics.all_finite() && peak_rss_mb > 0.0,
        metrics,
        attempted,
        failed,
    }
}

/// Peak resident set of this process, MB (`VmHWM`); 0 when unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Prints each layer's span count, total and self time.
fn print_layers(tracer: &Tracer, traced: &[Iter]) {
    println!("# {} spans recorded", tracer.spans().len());
    println!("# layer\tspans\ttotal_ms\tself_ms");
    for (name, l) in tracer.layers() {
        println!(
            "# {name}\t{}\t{:.3}\t{:.3}",
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6
        );
    }
    println!(
        "# traced iterations={} inst_per_s best_parts={:.0} median_iteration={:.0}",
        traced.len(),
        best_rate(traced),
        median(&rates(traced))
    );
}

/// Writes the spans as Chrome trace-event JSON under `perfbench/out/`.
fn write_spans(tracer: &Tracer, args: &Args) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/{}-seed{}.trace.json", args.workload, args.seed);
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_json(SPAN_FILE_LIMIT)));
    match written {
        Ok(()) => println!("# spans written to {path}"),
        Err(e) => println!("# spans not written ({path}): {e}"),
    }
}

// ---------------------------------------------------------------------
// Per-layer metrics the workloads share
// ---------------------------------------------------------------------

/// Host time of the traced `session.submit` spans: summed per policy and
/// per workload in each traced iteration (median over iterations), and
/// the percentiles of single submits.
fn report_submits(tracer: &Tracer, m: &mut Metrics) {
    for p in Policy::ALL {
        m.set(
            &policy_metric(p),
            median(&sums_by_label(tracer, 1, p.name())) / 1e6,
        );
    }
    for w in Workload::ALL {
        m.set(
            &workload_metric(w),
            median(&sums_by_label(tracer, 0, w.name())) / 1e6,
        );
    }
    let us: Vec<f64> = tracer
        .durations("session.submit")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    m.set("session.submit_p50_us", percentile(&us, 0.50));
    m.set("session.submit_p99_us", percentile(&us, 0.99));
}

/// Per traced iteration, the summed `session.submit` time of the spans
/// whose label `slot` (0 = workload, 1 = policy) reads `label`.
fn sums_by_label(tracer: &Tracer, slot: usize, label: &str) -> Vec<f64> {
    tracer
        .groups("iteration")
        .iter()
        .map(|g| {
            g.iter()
                .filter(|s| s.name == "session.submit" && s.labels[slot] == label)
                .map(|s| s.ns() as f64)
                .sum()
        })
        .collect()
}

/// Device work from cumulative snapshots of devices that started pristine.
fn report_devices(snaps: &[DeviceSnapshot], requests: u64, instructions: u64, m: &mut Metrics) {
    let sum = |f: &dyn Fn(&DeviceSnapshot) -> u64| snaps.iter().map(f).sum::<u64>() as f64;
    let lookups = sum(&|s| s.l2p_hits + s.l2p_misses);
    m.set(
        "sim.device_ops_per_inst",
        sum(&|s| s.device_ops) / instructions as f64,
    );
    m.set("ftl.l2p_lookups_per_inst", lookups / instructions as f64);
    m.set("ftl.l2p_hit_rate", sum(&|s| s.l2p_hits) / lookups.max(1.0));
    m.set(
        "ftl.rewrites_per_req",
        sum(&|s| s.rewrites) / requests as f64,
    );
    m.set(
        "ftl.coherence_syncs_per_req",
        sum(&|s| s.coherence_syncs) / requests as f64,
    );
    m.set("ftl.gc_invocations", sum(&|s| s.gc_invocations));
    m.set(
        "ftl.pages_migrated",
        sum(&|s| s.gc_pages_migrated + s.wear_pages_migrated),
    );
    let spread = snaps.iter().map(|s| s.wear_spread).max();
    m.set("ftl.wear_spread", spread.unwrap_or(0) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse("--workload fleet-trace --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload, "fleet-trace");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 2.5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload figure-sweep --trace 2").is_err());
        assert!(parse("--workload figure-sweep --seed").is_err());
        assert!(parse("--seed 1").is_err());
    }

    /// A reduced-size run of one workload: untraced iterations, a traced
    /// iteration, and the per-layer checks, all with no failures and
    /// digests equal to the warm-up's.
    fn smoke<S: Scenario>(seed: u64) -> (Metrics, u64) {
        let mut tracer = Tracer::new();
        let mut bench = tracer.span("setup", ["smoke", ""], 1, |t| {
            S::setup(Size::Smoke, seed, t)
        });
        let reference = bench.reference_digest();
        for _ in 0..2 {
            let it = bench.run(&mut Tracer::off(), 0);
            assert!(it.attempted > 0 && it.instructions > 0);
            assert_eq!(it.failed, 0);
            assert_eq!(it.digest, reference);
        }
        let it = bench.run(&mut tracer, 10_000_000);
        assert_eq!(it.failed, 0);
        assert_eq!(it.digest, reference, "tracing must not change the outputs");
        let mut m = Metrics::new(PER_LAYER);
        let (attempted, failed) = bench.layers(&mut tracer, &mut m);
        assert!(attempted > 0);
        assert_eq!(failed, 0, "split or serial/pooled check failed");
        assert!(m.all_finite());
        assert!(m.get("engine.run_ns_per_inst") > 0.0);
        assert!(m.get("sim.device_ops_per_inst") > 0.0);
        (m, reference)
    }

    #[test]
    fn smoke_figure_sweep() {
        let (m, _) = smoke::<FigureSweep>(1);
        assert!(m.get("session.submit_ms.conduit") > 0.0);
        assert_eq!(m.get("session.plan_misses"), 66.0);
        assert_eq!(m.get("session.plan_hits"), 66.0, "per timed iteration");
    }

    #[test]
    fn smoke_warm_rewrite() {
        let (m, a) = smoke::<WarmRewrite>(1);
        assert!(m.get("ftl.coherence_syncs_per_req") > 0.0);
        assert!(m.get("ftl.rewrites_per_req") > 0.0);
        assert_eq!(m.get("ftl.gc_invocations"), 0.0);
        let (_, b) = smoke::<WarmRewrite>(2);
        assert_ne!(a, b, "the seed sets the interleaving");
    }

    #[test]
    fn smoke_fleet_trace() {
        let (m, a) = smoke::<FleetTrace>(1);
        assert!(m.get("fleet.shed") > 0.0, "the capped hog sheds");
        assert_eq!(
            m.get("fleet.served") + m.get("fleet.shed"),
            m.get("traffic.records")
        );
        let (_, b) = smoke::<FleetTrace>(2);
        assert_ne!(a, b, "the seed sets the on/off tenant's draws");
    }
}
