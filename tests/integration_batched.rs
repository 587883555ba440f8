//! The strip-batched run loop against the golden outcome oracle.
//!
//! The engine once had three run loops: a per-instruction scalar loop, the
//! strip-batched loop, and a pooled evaluate/commit loop. Every scenario
//! below was first recorded into `tests/golden/batched_*.txt` from the
//! scalar reference loop, and the other two loops reproduced those files
//! byte for byte. The batched loop is now the only one; a change to the
//! model regenerates the files from it. It must reproduce them for every
//! workload and policy, on fresh and warm devices, submitted one at a time
//! or fanned out across worker threads. See `tests/common` for the file
//! format and `CONDUIT_REGEN_GOLDEN=1`.

mod common;

use std::collections::BTreeSet;

use common::{report_line, Golden};
use conduit::{
    Policy, RunOptions, RunOutcome, RunReport, RunRequest, RuntimeEngine, Session, StripPlan,
};
use conduit_types::{
    DataLocation, LogicalPageId, OpType, Operand, SsdConfig, VectorInst, VectorProgram,
};
use conduit_workloads::{Scale, Workload};

/// Every workload × policy at test scale, with timelines, rendered in
/// workload-major order into `golden`.
fn every_workload_and_policy(session: &mut Session, batched: bool, mut golden: Golden) -> Golden {
    let mut requests = Vec::new();
    let mut labels = Vec::new();
    for workload in Workload::ALL {
        let id = session
            .register(workload.program(Scale::test()).unwrap())
            .unwrap();
        for policy in Policy::ALL {
            requests.push(RunRequest::new(id, policy).timeline(true));
            labels.push(format!("{workload}/{policy}"));
        }
    }
    let outcomes: Vec<RunOutcome> = if batched {
        session.submit_batch(&requests).unwrap()
    } else {
        requests
            .iter()
            .map(|r| session.submit(r).unwrap())
            .collect()
    };
    for (label, outcome) in labels.iter().zip(&outcomes) {
        golden.outcome(label, outcome);
    }
    golden
}

#[test]
fn serial_submits_match_the_golden_for_every_workload_and_policy() {
    let mut session = Session::builder(SsdConfig::small_for_tests()).build();
    let golden = Golden::new("batched_every_workload_and_policy");
    every_workload_and_policy(&mut session, false, golden).check();
}

#[test]
fn batches_match_the_golden_for_every_workload_policy_and_pool_size() {
    // The fresh fan-out of `submit_batch` on pools of every size reproduces
    // the serially recorded outcomes.
    for workers in [2, 4, 8] {
        let mut session = Session::builder(SsdConfig::small_for_tests())
            .workers(workers)
            .build();
        let golden = Golden::same_as("batched_every_workload_and_policy");
        every_workload_and_policy(&mut session, true, golden).check();
    }
}

/// The warm-device stream of the two warm tests: three rounds of Conduit,
/// DM-Offloading and Ideal on jacobi-1d, each round's outcomes in order.
const WARM_ROUNDS: usize = 3;
const WARM_POLICIES: [Policy; 3] = [Policy::Conduit, Policy::DmOffloading, Policy::Ideal];

#[test]
fn serial_submits_match_the_golden_on_warm_devices() {
    let mut session = Session::builder(SsdConfig::small_for_tests()).build();
    let id = session
        .register(Workload::Jacobi1d.program(Scale::test()).unwrap())
        .unwrap();
    let device = session.create_device("warm");
    let mut golden = Golden::new("batched_warm_device");
    for round in 0..WARM_ROUNDS {
        for policy in WARM_POLICIES {
            let outcome = session
                .submit(&RunRequest::new(id, policy).on_device(device).timeline(true))
                .unwrap();
            golden.outcome(format!("round{round}/{policy}"), &outcome);
        }
    }
    golden.snapshot("final", &session.device_snapshot(device));
    golden.check();
}

#[test]
fn batches_match_the_golden_on_warm_devices_across_rounds() {
    // Three devices age through the same stream, each round submitted as
    // one batch whose three device lanes run in parallel on four workers.
    // Every device must reproduce the serially recorded stream, which also
    // proves each round left the devices' FTL/coherence state identical.
    let mut session = Session::builder(SsdConfig::small_for_tests())
        .workers(4)
        .build();
    let id = session
        .register(Workload::Jacobi1d.program(Scale::test()).unwrap())
        .unwrap();
    let devices: Vec<_> = (0..3)
        .map(|d| session.create_device(&format!("warm-{d}")))
        .collect();
    let mut goldens: Vec<Golden> = devices
        .iter()
        .map(|_| Golden::same_as("batched_warm_device"))
        .collect();
    for round in 0..WARM_ROUNDS {
        for policy in WARM_POLICIES {
            let requests: Vec<RunRequest> = devices
                .iter()
                .map(|&d| RunRequest::new(id, policy).on_device(d).timeline(true))
                .collect();
            let outcomes = session.submit_batch(&requests).unwrap();
            for (golden, outcome) in goldens.iter_mut().zip(&outcomes) {
                golden.outcome(format!("round{round}/{policy}"), outcome);
            }
        }
    }
    for (golden, &device) in goldens.iter_mut().zip(&devices) {
        golden.snapshot("final", &session.device_snapshot(device));
    }
    for golden in goldens {
        golden.check();
    }
}

#[test]
fn four_worker_batches_match_the_golden_and_serial_submits() {
    let mut session = Session::builder(SsdConfig::small_for_tests())
        .workers(4)
        .build();
    let mut requests = Vec::new();
    let mut labels = Vec::new();
    for workload in [Workload::Aes, Workload::LlamaInference] {
        let id = session
            .register(workload.program(Scale::test()).unwrap())
            .unwrap();
        for policy in [Policy::Conduit, Policy::DmOffloading, Policy::Ideal] {
            requests.push(RunRequest::new(id, policy).timeline(true));
            labels.push(format!("{workload}/{policy}"));
        }
    }
    let pooled = session.submit_batch(&requests).unwrap();
    let mut golden = Golden::new("batched_thread_pool");
    for (i, (label, outcome)) in labels.iter().zip(&pooled).enumerate() {
        golden.outcome(label, outcome);
        // And the pooled results match serial submission of the same
        // requests.
        assert_eq!(
            *outcome,
            session.submit(&requests[i]).unwrap(),
            "request {i}: pooled outcome diverged from serial"
        );
    }
    golden.check();
}

/// Runs `program` under `policy` on a fresh device through the engine API.
fn run_fresh(program: &VectorProgram, policy: Policy) -> RunReport {
    let cfg = SsdConfig::small_for_tests();
    let engine = RuntimeEngine::new(&cfg);
    let mut device = conduit_sim::SsdDevice::new(&cfg).unwrap();
    engine.prepare(&mut device, program).unwrap();
    engine
        .run(&mut device, program, &RunOptions::new(policy))
        .unwrap()
}

#[test]
fn single_instruction_programs_are_one_strip() {
    let mut prog = VectorProgram::new("one-inst");
    prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    let plan = StripPlan::plan(&prog, Policy::Conduit, conduit::CostFunction::conduit());
    assert_eq!(plan.strips().len(), 1);
    assert_eq!((plan.strips()[0].start, plan.strips()[0].len), (0, 1));
    let mut golden = Golden::new("batched_single_instruction");
    for policy in Policy::ALL {
        let report = run_fresh(&prog, policy);
        assert_eq!(report.instructions, 1);
        golden.line(report_line(policy, &report));
    }
    golden.check();
}

#[test]
fn fully_heterogeneous_programs_degenerate_to_unit_strips() {
    // Every consecutive pair differs in op (or shape): the planner must
    // produce only unit-length strips — the all-tails worst case.
    let mut prog = VectorProgram::new("hetero");
    for (k, op) in OpType::ALL.into_iter().enumerate() {
        prog.push(VectorInst::with_srcs(
            k as u32,
            op,
            (0..op.arity())
                .map(|s| Operand::page((k * 16 + s * 4) as u64))
                .collect(),
        ));
    }
    // And a same-op pair split by an elem_bits change, so shape (not just
    // op) boundaries are exercised too.
    let base = prog.len();
    let mut narrow = VectorInst::binary(
        base as u32,
        OpType::Add,
        Operand::page((base * 16) as u64),
        Operand::page((base * 16 + 4) as u64),
    );
    narrow.elem_bits = 8;
    prog.push(narrow);
    prog.push(VectorInst::binary(
        base as u32 + 1,
        OpType::Add,
        Operand::page((base * 16 + 8) as u64),
        Operand::page((base * 16 + 12) as u64),
    ));

    let plan = StripPlan::plan(&prog, Policy::Conduit, conduit::CostFunction::conduit());
    assert_eq!(plan.strips().len(), prog.len());
    assert!(plan.strips().iter().all(|s| s.len == 1));
    let mut golden = Golden::new("batched_heterogeneous");
    for policy in [
        Policy::Conduit,
        Policy::DmOffloading,
        Policy::Ideal,
        Policy::HostCpu,
        Policy::AresFlash,
    ] {
        golden.line(report_line(policy, &run_fresh(&prog, policy)));
    }
    golden.check();
}

#[test]
fn warm_coherence_state_flips_placement_mid_strip() {
    // Warm a device so that only the first instruction's operands are
    // DRAM-resident, then run one homogeneous three-instruction strip under
    // DM-Offloading: placement must change *inside* the strip (the plan
    // never pins dynamic decisions).
    let cfg = SsdConfig::small_for_tests();
    let engine = RuntimeEngine::new(&cfg);

    let mut warm = VectorProgram::new("warmup");
    warm.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    let mut hot = VectorProgram::new("hot-strip");
    hot.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    hot.push_binary(OpType::Xor, Operand::page(8), Operand::page(12));
    hot.push_binary(OpType::Xor, Operand::page(16), Operand::page(20));

    let mut device = conduit_sim::SsdDevice::new(&cfg).unwrap();
    engine.prepare(&mut device, &warm).unwrap();
    engine.prepare(&mut device, &hot).unwrap();
    // ISP executes out of DRAM: pages 0..8 become DRAM-resident.
    engine
        .run(&mut device, &warm, &RunOptions::new(Policy::IspOnly))
        .unwrap();
    assert_eq!(device.locate(LogicalPageId::new(0)), DataLocation::Dram);
    assert_eq!(device.locate(LogicalPageId::new(8)), DataLocation::Flash);
    let report = engine
        .run(&mut device, &hot, &RunOptions::new(Policy::DmOffloading))
        .unwrap();
    let mut golden = Golden::new("batched_mid_strip_flip");
    golden.line(report_line("hot-strip/DM-Offloading", &report));
    golden.snapshot("device", &device.snapshot());
    golden.check();

    // The whole hot program is one strip (same op and shape throughout) …
    let plan = StripPlan::plan(&hot, Policy::DmOffloading, conduit::CostFunction::conduit());
    assert_eq!(plan.strips().len(), 1);
    assert_eq!(plan.strips()[0].site, None);
    // … yet the warm coherence state forces more than one execution site
    // within it.
    let sites: BTreeSet<_> = report
        .timeline
        .iter()
        .map(|e| format!("{:?}", e.site))
        .collect();
    assert!(
        sites.len() > 1,
        "expected a mid-strip placement change, got {sites:?}"
    );
}

#[test]
fn l2p_miss_cadence_is_identical_in_every_mode_and_restarts_per_run() {
    // A deterministic L2P miss period of 4 (hit rate 0.75): in a run that
    // charges overheads every instruction bumps the lookup counter exactly
    // once, so misses land on instruction indices 3, 7, 11, 15 — regardless
    // of strip boundaries, of whether the run was submitted alone or in a
    // pooled batch, and of whether the device is fresh or warm.
    let mut cfg = SsdConfig::small_for_tests();
    cfg.l2p_cache_hit_rate = 0.75;
    let overheads = conduit::OverheadModel::new(&cfg);
    let mut expected = conduit::OverheadReport::default();
    for g in 1u64..=16 {
        expected.record(overheads.per_instruction(2, g.is_multiple_of(4)));
    }

    // Two strips (op change at instruction 10), so the cadence crosses a
    // strip boundary: the second strip must pick up the counter
    // mid-period, not restart it.
    let mut prog = VectorProgram::new("cadence");
    for k in 0..10u64 {
        prog.push_binary(OpType::Xor, Operand::page(k * 8), Operand::page(k * 8 + 4));
    }
    for k in 10..16u64 {
        prog.push_binary(OpType::Add, Operand::page(k * 8), Operand::page(k * 8 + 4));
    }

    let mut session = Session::builder(cfg).workers(4).build();
    let id = session.register(prog).unwrap();
    let request = RunRequest::new(id, Policy::Conduit);
    let lone = session.submit(&request).unwrap();
    let pooled = session
        .submit_batch(&[request.clone(), request.clone()])
        .unwrap();
    assert_eq!(lone.summary.overhead, expected, "lone submit cadence");
    assert_eq!(pooled[0], lone);
    assert_eq!(pooled[1], lone);

    // The lookup counter is per run: each run on a warm device misses on
    // the same in-run indices as the first, so a counter leaking across
    // runs would shift the miss pattern and the totals would differ.
    let device = session.create_device("cadence");
    let warm = request.clone().on_device(device);
    let warm_runs: Vec<_> = (0..3).map(|_| session.submit(&warm).unwrap()).collect();
    for (run, outcome) in warm_runs.iter().enumerate() {
        assert_eq!(
            outcome.summary.overhead, expected,
            "cadence must restart at warm run {run}"
        );
    }
    let mut golden = Golden::new("batched_l2p_cadence");
    golden.outcome("fresh", &lone);
    golden.outcome("warm-third", &warm_runs[2]);
    golden.snapshot("warm-device", &session.device_snapshot(device));
    golden.check();
}
