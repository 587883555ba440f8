//! Workload-level integration: the six evaluated applications run end to end
//! under Conduit (via the session API) and their measured characteristics
//! keep the Table 3 shape.

use conduit::{CostFunction, Policy, RunRequest, RuntimeEngine, Session};
use conduit_sim::SsdDevice;
use conduit_types::{Duration, Energy, Resource, SsdConfig, PAGE_BYTES};
use conduit_workloads::{characterize, Scale, Workload};

fn session() -> Session {
    Session::builder(SsdConfig::small_for_tests()).build()
}

#[test]
fn all_workloads_run_under_conduit() {
    let mut session = session();
    for workload in Workload::ALL {
        let program = workload.program(Scale::test()).unwrap();
        let instructions = program.len();
        let id = session.register(program).unwrap();
        let report = session
            .submit(&RunRequest::new(id, Policy::Conduit))
            .unwrap()
            .summary;
        assert_eq!(report.instructions, instructions, "{workload}");
        assert!(report.total_time > Duration::ZERO, "{workload}");
        assert!(report.total_energy > Energy::ZERO, "{workload}");
        assert!(report.overhead.count > 0, "{workload}");
        // §4.5: the per-instruction overhead averages a few microseconds and
        // never exceeds ~33 µs.
        assert!(
            report.overhead.mean() < Duration::from_us(10.0),
            "{workload}"
        );
        assert!(report.overhead.max <= Duration::from_us(40.0), "{workload}");
    }
    // One registry entry per workload: programs were vectorized exactly
    // once.
    assert_eq!(session.registry().len(), Workload::ALL.len());
}

#[test]
fn vectorizable_fraction_orders_workloads_like_table3() {
    // Table 3: heat-3d/jacobi-1d (95%) > LLaMA inference (70%) > training
    // (60%) > AES (65%)… the key qualitative fact is that the stencils are
    // the most vectorizable and the XOR filter is by far the least.
    let mut fractions = std::collections::HashMap::new();
    for workload in Workload::ALL {
        let program = workload.program(Scale::test()).unwrap();
        fractions.insert(workload, characterize(&program).vectorizable_pct);
    }
    assert!(fractions[&Workload::Heat3d] > fractions[&Workload::LlamaInference]);
    assert!(fractions[&Workload::Jacobi1d] > fractions[&Workload::LlmTraining]);
    for (w, f) in &fractions {
        if *w != Workload::XorFilter {
            assert!(
                f > &fractions[&Workload::XorFilter],
                "{w} should vectorize better than the XOR filter"
            );
        }
    }
}

#[test]
fn compute_heavy_workloads_gain_more_from_conduit_than_io_bound_ones() {
    // §6.1: Conduit's advantage over DM-Offloading is largest for the
    // compute-intensive workloads and smallest for the memory-bound ones.
    let mut session = session();

    let gain = |workload: Workload, session: &mut Session| {
        let id = session
            .register(workload.program(Scale::test()).unwrap())
            .unwrap();
        let dm = session
            .submit(&RunRequest::new(id, Policy::DmOffloading))
            .unwrap()
            .summary;
        let conduit = session
            .submit(&RunRequest::new(id, Policy::Conduit))
            .unwrap()
            .summary;
        conduit.speedup_over(&dm)
    };

    let heat = gain(Workload::Heat3d, &mut session);
    let aes = gain(Workload::Aes, &mut session);
    assert!(
        heat >= aes * 0.9,
        "compute-heavy heat-3d ({heat:.2}x) should benefit at least as much as AES ({aes:.2}x)"
    );
    assert!(
        heat >= 1.0,
        "Conduit should not lose to DM-Offloading on heat-3d"
    );
}

#[test]
fn disabling_the_cost_function_terms_changes_behaviour() {
    // Ablation: dropping the queueing-delay term makes Conduit behave more
    // like DM-Offloading and must not make it faster.
    let mut session = session();
    let id = session
        .register(Workload::Heat3d.program(Scale::test()).unwrap())
        .unwrap();

    let full = session
        .submit(&RunRequest::new(id, Policy::Conduit))
        .unwrap()
        .summary;
    let no_queue = session
        .submit(
            &RunRequest::new(id, Policy::Conduit).cost_function(CostFunction {
                include_queue_delay: false,
                ..CostFunction::conduit()
            }),
        )
        .unwrap()
        .summary;
    assert!(
        no_queue.total_time >= full.total_time,
        "removing queue awareness should not speed Conduit up (full {}, ablated {})",
        full.total_time,
        no_queue.total_time
    );
}

#[test]
fn paper_scale_llama_timeline_supports_figure_10() {
    // Figure 10 plots ~12000 instructions; make sure a larger-scale build
    // produces a timeline of that order without blowing up memory or time —
    // and that the timeline only materializes when the request opts in.
    let program = Workload::LlamaInference.program(Scale::paper()).unwrap();
    assert!(program.len() > 1_500, "len = {}", program.len());
    let mut session = Session::builder(SsdConfig::default()).build();
    let id = session.register(program).unwrap();

    let cheap = session
        .submit(&RunRequest::new(id, Policy::Conduit))
        .unwrap();
    assert!(cheap.artifacts.is_none());

    let full = session
        .submit(&RunRequest::new(id, Policy::Conduit).with_timeline())
        .unwrap();
    let timeline = &full.artifacts.expect("requested timeline").timeline;
    assert_eq!(timeline.len(), full.summary.instructions);
    // Opting in to artifacts must not change the summary.
    assert_eq!(cheap.summary, full.summary);
}

#[test]
fn paper_scale_operand_groups_spread_over_the_planes() {
    // `prepare` co-locates slice k of an in-flash-capable instruction's
    // operands in one block. The groups take the allocator's round-robin
    // plane cursor, so no plane holds more than an even share of them plus
    // one, and operand reads spread over the dies.
    let cfg = SsdConfig::default();
    let program = Workload::LlamaInference.program(Scale::paper()).unwrap();
    let mut device = SsdDevice::new(&cfg).unwrap();
    RuntimeEngine::new(&cfg)
        .prepare(&mut device, &program)
        .unwrap();
    let geometry = device.ftl().flash_state().geometry();
    let mut per_plane = vec![0u64; geometry.total_planes() as usize];
    for inst in program.iter() {
        let mut srcs = inst.src_pages();
        let (Some(first), Some(_)) = (srcs.next(), srcs.next()) else {
            continue;
        };
        if !Resource::Ifp.supports(inst.op) {
            continue;
        }
        for k in 0..inst.vector_bytes().div_ceil(PAGE_BYTES).max(1) {
            let addr = device.ftl().peek(first.offset(k)).expect("prepared");
            per_plane[geometry.plane_index_of(addr) as usize] += 1;
        }
    }
    let slices: u64 = per_plane.iter().sum();
    let busiest = per_plane.iter().copied().max().unwrap_or(0);
    let bound = slices.div_ceil(per_plane.len() as u64) + 1;
    assert!(slices > 0, "LLaMA2 has in-flash-capable operand groups");
    assert!(
        busiest <= bound,
        "one plane holds {busiest} of {slices} operand-group slices \
         (bound {bound} over {} planes)",
        per_plane.len()
    );
}
