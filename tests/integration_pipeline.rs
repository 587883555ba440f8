//! End-to-end pipeline integration: scalar kernel → compile-time
//! vectorization → program registration → runtime offloading → summary.

use conduit::{Policy, RunOptions, RunRequest, RuntimeEngine, Session, DEFAULT_PERCENTILES};
use conduit_sim::{DeviceState, SsdDevice};
use conduit_types::{ConduitError, Duration, Energy, OpType, SsdConfig};
use conduit_vectorizer::{ArrayDecl, Expr, Kernel, Loop, Statement, Vectorizer};

/// A small mixed kernel: one vectorizable streaming loop, one multiply-heavy
/// loop, and one scalar region.
fn mixed_kernel() -> Kernel {
    let mut k = Kernel::new("pipeline");
    let a = k.declare_array(ArrayDecl::new("a", 16_384, 32));
    let b = k.declare_array(ArrayDecl::new("b", 16_384, 32));
    let c = k.declare_array(ArrayDecl::new("c", 16_384, 32));

    k.push_loop(Loop::new("bitwise", 16_384).with_statement(Statement::new(
        c.at(0),
        Expr::binary(OpType::Xor, Expr::load(a.at(0)), Expr::load(b.at(0))),
    )));
    k.push_loop(Loop::new("fma", 16_384).with_statement(Statement::new(
        c.at(0),
        Expr::binary(
            OpType::Add,
            Expr::binary(OpType::Mul, Expr::load(a.at(0)), Expr::load(b.at(0))),
            Expr::load(c.at(0)),
        ),
    )));
    k.push_loop(
        Loop::new("control", 8_192)
            .with_statement(Statement::new(
                a.at(0),
                Expr::binary(OpType::Add, Expr::load(a.at(0)), Expr::Const(1)),
            ))
            .with_complex_control_flow(),
    );
    k
}

fn session() -> Session {
    Session::builder(SsdConfig::small_for_tests()).build()
}

#[test]
fn kernel_to_summary_pipeline_works() {
    let out = Vectorizer::default().vectorize(&mixed_kernel()).unwrap();
    assert!(out.report.loops_vectorized >= 2);
    assert!(out.report.loops_scalar >= 1);
    assert!(out.report.vectorized_fraction > 0.5);

    let mut session = session();
    let instructions = out.program.len();
    let id = session.register(out.program).unwrap();
    let outcome = session
        .submit(&RunRequest::new(id, Policy::Conduit))
        .unwrap();
    let report = &outcome.summary;

    assert_eq!(report.instructions, instructions);
    assert_eq!(report.offload_mix.total() as usize, report.instructions);
    assert_eq!(report.latency.len(), report.instructions);
    assert!(report.total_time > Duration::ZERO);
    assert!(report.total_energy > Energy::ZERO);
    // The summary is the cheap report: no timeline unless asked for.
    assert!(outcome.artifacts.is_none());
    // The breakdown covers real work in every category for a mixed kernel
    // executed inside the SSD.
    assert!(report.breakdown.compute > Duration::ZERO);
    assert!(report.breakdown.total() > Duration::ZERO);
    // Scalar regions can only run on the controller cores, so ISP must have
    // received at least the scalar instructions.
    assert!(report.offload_mix.isp > 0);
}

#[test]
fn runs_are_deterministic() {
    let out = Vectorizer::default().vectorize(&mixed_kernel()).unwrap();
    let mut session = session();
    let id = session.register(out.program).unwrap();
    let request = RunRequest::new(id, Policy::Conduit).with_timeline();
    let a = session.submit(&request).unwrap();
    let b = session.submit(&request).unwrap();
    assert_eq!(a.summary.total_time, b.summary.total_time);
    assert_eq!(a.summary.total_energy, b.summary.total_energy);
    assert_eq!(a.summary.offload_mix, b.summary.offload_mix);
    assert_eq!(a.artifacts, b.artifacts);
}

#[test]
fn engine_can_be_driven_directly() {
    // The engine remains the low-level API underneath the session service:
    // it owns only the models and borrows the device per run, so the caller
    // controls the device's lifetime.
    let out = Vectorizer::default().vectorize(&mixed_kernel()).unwrap();
    let cfg = SsdConfig::small_for_tests();
    let engine = RuntimeEngine::new(&cfg);
    let mut device = conduit_sim::SsdDevice::new(&cfg).unwrap();
    engine.prepare(&mut device, &out.program).unwrap();
    let report = engine
        .run(
            &mut device,
            &out.program,
            &RunOptions::new(Policy::DmOffloading),
        )
        .unwrap();
    assert_eq!(report.policy, Policy::DmOffloading);
    // The device's energy meter and the report agree that energy was spent.
    assert!(device.energy_meter().total() > Energy::ZERO);
    // FTL saw the program's pages.
    assert!(device.ftl().stats().pages_mapped > 0);
    // The borrowed device exposes its cumulative state for inspection.
    assert!(device.snapshot().device_ops > 0);
}

#[test]
fn per_instruction_latencies_are_bounded_by_total_time() {
    let out = Vectorizer::default().vectorize(&mixed_kernel()).unwrap();
    let mut session = session();
    let id = session.register(out.program).unwrap();
    let report = session
        .submit(&RunRequest::new(id, Policy::Conduit))
        .unwrap()
        .summary;
    let max = report.percentile(1.0);
    assert!(max <= report.total_time);
    assert!(report.percentile(0.5) <= max);
    // The default percentile set is materialized in order.
    let set: Vec<f64> = report.percentiles.iter().map(|&(p, _)| p).collect();
    assert_eq!(set, DEFAULT_PERCENTILES);
    for &(p, latency) in &report.percentiles {
        assert_eq!(latency, report.percentile(p));
        assert!(latency <= max);
    }
}

#[test]
fn vector_width_ablation_changes_instruction_count_not_correctness() {
    let kernel = mixed_kernel();
    let wide = Vectorizer::default().vectorize(&kernel).unwrap();
    let narrow = conduit_vectorizer::Vectorizer::with_width(1024)
        .vectorize(&kernel)
        .unwrap();
    assert!(narrow.program.len() > wide.program.len());

    let mut session = session();
    let wide_id = session.register(wide.program).unwrap();
    let narrow_id = session.register(narrow.program).unwrap();
    let wide_report = session
        .submit(&RunRequest::new(wide_id, Policy::Conduit))
        .unwrap()
        .summary;
    let narrow_report = session
        .submit(&RunRequest::new(narrow_id, Policy::Conduit))
        .unwrap()
        .summary;
    assert!(wide_report.total_time > Duration::ZERO);
    assert!(narrow_report.total_time > Duration::ZERO);
}

#[test]
fn dram_geometry_without_pud_units_is_a_config_error() {
    // Zeroing any factor of the PuD unit count (channels × ranks × banks ×
    // subarrays) leaves the DRAM with no compute units: every entry point
    // that builds a device reports a configuration error, even for a
    // host-only request.
    let zeroings: [fn(&mut SsdConfig); 3] = [
        |cfg| cfg.dram.channels = 0,
        |cfg| cfg.dram.ranks = 0,
        |cfg| cfg.dram.banks = 0,
    ];
    let program = Vectorizer::default()
        .vectorize(&mixed_kernel())
        .unwrap()
        .program;
    let checkpoint = DeviceState::new(&SsdConfig::small_for_tests())
        .unwrap()
        .to_bytes();
    for (i, zero) in zeroings.iter().enumerate() {
        let mut cfg = SsdConfig::small_for_tests();
        zero(&mut cfg);
        assert!(
            matches!(
                SsdDevice::new(&cfg),
                Err(ConduitError::InvalidConfig { .. })
            ),
            "zeroing {i}: SsdDevice::new"
        );
        assert!(
            matches!(
                DeviceState::from_bytes(&cfg, &checkpoint),
                Err(ConduitError::InvalidConfig { .. })
            ),
            "zeroing {i}: DeviceState::from_bytes"
        );
        let mut session = Session::builder(cfg).serial().build();
        let id = session.register(program.clone()).unwrap();
        for policy in [Policy::HostCpu, Policy::Conduit] {
            assert!(
                session.submit(&RunRequest::new(id, policy)).is_err(),
                "zeroing {i}: {policy} submit"
            );
        }
    }
}
