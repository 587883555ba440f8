//! Property suite over seeded random vector programs — mixed shapes,
//! random cross-strip `Operand::Result` references, random stores — on
//! fresh and warm devices. Every run must keep the engine's invariants (no
//! panic, a placement per instruction, latencies inside the run), replay
//! bit-identically whether submitted one at a time or as one pooled batch,
//! and reproduce `tests/golden/random_programs.txt`, which was recorded
//! from the per-instruction scalar loop before it was deleted (the
//! strip-batched and pooled loops reproduced it byte for byte).
//!
//! The generator is a counted splitmix64 stream, so every failure is
//! reproducible from its program index alone.

mod common;

use common::Golden;
use conduit::{Policy, RunOutcome, RunRequest, Session};
use conduit_types::{InstId, LogicalPageId, OpType, Operand, SsdConfig, VectorInst, VectorProgram};

/// splitmix64: the same tiny deterministic generator the fault-injection
/// plans use — no dependency, uniform output, trivially seedable.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random but always-valid program: 4–23 instructions over the full op
/// set, ~25% chance per source operand of referencing an earlier result
/// (back-references freely cross strip boundaries), ~1/6 chance of a store
/// (warm coherence state that later placements read), and occasional
/// narrow element widths so strip boundaries land on shape changes as well
/// as op changes.
fn random_program(index: usize) -> VectorProgram {
    let mut rng = SplitMix64(0xc0ffee ^ (index as u64).wrapping_mul(0x9e3779b97f4a7c15));
    let n = 4 + rng.below(20) as usize;
    let mut prog = VectorProgram::new(format!("rand-{index}"));
    for i in 0..n {
        let op = OpType::ALL[rng.below(OpType::ALL.len() as u64) as usize];
        let mut srcs = Vec::with_capacity(op.arity());
        for _ in 0..op.arity() {
            if i > 0 && rng.below(4) == 0 {
                srcs.push(Operand::result(InstId::new(rng.below(i as u64) as u32)));
            } else {
                srcs.push(Operand::page(rng.below(64) * 4));
            }
        }
        let mut inst = VectorInst::with_srcs(i as u32, op, srcs);
        if rng.below(8) == 0 {
            inst.elem_bits = 8;
        }
        if rng.below(6) == 0 {
            inst.dst_page = Some(LogicalPageId::new(256 + rng.below(32) * 4));
        }
        prog.push(inst);
    }
    prog
}

const PROGRAMS: usize = 200;
const POLICIES: [Policy; 3] = [Policy::Conduit, Policy::DmOffloading, Policy::IspOnly];

/// Registers every program and builds its request: even indices run
/// fresh, odd ones on the policy's warm device (one device per policy, so
/// each ages through its own stream).
fn requests(session: &mut Session) -> Vec<RunRequest> {
    let warm: Vec<_> = (0..POLICIES.len())
        .map(|pi| session.create_device(&format!("rand-{pi}")))
        .collect();
    (0..PROGRAMS)
        .map(|index| {
            let id = session.register(random_program(index)).unwrap();
            let request = RunRequest::new(id, POLICIES[index % POLICIES.len()]).timeline(true);
            if index % 2 == 0 {
                request
            } else {
                request.on_device(warm[index % POLICIES.len()])
            }
        })
        .collect()
}

#[test]
fn random_programs_run_bit_identically_in_every_mode() {
    let mut serial = Session::builder(SsdConfig::small_for_tests()).build();
    let serial_requests = requests(&mut serial);
    let outcomes: Vec<RunOutcome> = serial_requests
        .iter()
        .map(|r| serial.submit(r).unwrap())
        .collect();

    let mut golden = Golden::new("random_programs");
    for (index, outcome) in outcomes.iter().enumerate() {
        let s = &outcome.summary;
        let timeline = &outcome.artifacts.as_ref().unwrap().timeline;
        assert_eq!(
            s.offload_mix.total(),
            s.instructions as u64,
            "program {index}"
        );
        assert_eq!(timeline.len(), s.instructions, "program {index}");
        assert!(
            timeline.iter().all(|e| e.dispatched <= e.completed),
            "program {index}: an instruction completed before its dispatch"
        );
        assert!(
            s.latency.max() <= s.service_time,
            "program {index}: an instruction outlived its run"
        );
        let fresh = if index % 2 == 0 { "fresh" } else { "warm" };
        golden.outcome(format!("{index}/{}/{fresh}", s.policy), outcome);
    }
    for (pi, (handle, _)) in serial.devices().enumerate() {
        golden.snapshot(format!("device{pi}"), &serial.device_snapshot(handle));
    }
    golden.check();

    // The same stream on a pool: every fresh run in one fanned-out batch,
    // then the warm runs three at a time. Consecutive warm programs target
    // the three devices in turn, so each of those batches serves three
    // lanes in parallel, one request each.
    let mut pooled = Session::builder(SsdConfig::small_for_tests())
        .workers(4)
        .build();
    let pooled_requests = requests(&mut pooled);
    let mut batched: Vec<Option<RunOutcome>> = vec![None; PROGRAMS];
    let fresh: Vec<usize> = (0..PROGRAMS).step_by(2).collect();
    let warm: Vec<usize> = (1..PROGRAMS).step_by(2).collect();
    for group in std::iter::once(fresh.as_slice()).chain(warm.chunks(POLICIES.len())) {
        let batch: Vec<RunRequest> = group.iter().map(|&i| pooled_requests[i].clone()).collect();
        for (&i, outcome) in group.iter().zip(pooled.submit_batch(&batch).unwrap()) {
            batched[i] = Some(outcome);
        }
    }
    for (index, (a, b)) in outcomes.iter().zip(&batched).enumerate() {
        assert_eq!(
            Some(a),
            b.as_ref(),
            "program {index}: pooled batch diverged from serial submission"
        );
    }
    for (handle, _) in serial.devices() {
        let name = serial.device_name(handle);
        let other = pooled.find_device(name).unwrap();
        assert_eq!(
            serial.device_snapshot(handle),
            pooled.device_snapshot(other),
            "{name}: warm aging diverged between serial and pooled submission"
        );
    }
}
