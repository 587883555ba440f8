//! PuD-SSD on narrow DRAM: pools with fewer free subarrays than a vector
//! has sub-operations, and zero-length PuD service.
//!
//! At the default geometry every PuD instruction of the quick figure sweep
//! and of the smoke runs finds all its subarrays free, so those goldens
//! never reach the paths where sub-operations queue in waves or where a
//! sub-operation's reservation ends where it starts. The golden file
//! `tests/golden/pud_narrow_dram.txt` pins them: every workload at test
//! scale plus a program of 64-bit instructions (four sub-operations each),
//! fresh and on one warm device, under the policies that place on PuD, on
//! three variants of the test configuration.
//!
//! The file also covers the DRAM and flash geometries a device rejects: a
//! row narrower than one 64-bit element, and zero-byte flash pages.

mod common;

use common::Golden;
use conduit::{Policy, RunRequest, Session};
use conduit_sim::{DeviceState, SsdDevice};
use conduit_types::inst::MAX_ELEM_BITS;
use conduit_types::{
    ConduitError, Duration, LogicalPageId, OpType, Operand, Resource, SimTime, SsdConfig,
    VectorInst, VectorProgram,
};
use conduit_workloads::{Scale, Workload};

/// The policies that can place an instruction on PuD-SSD.
const PUD_POLICIES: [Policy; 4] = [
    Policy::PudSsd,
    Policy::Conduit,
    Policy::BwOffloading,
    Policy::DmOffloading,
];

/// The test configuration with one DRAM bank of `subarrays` subarrays: that
/// many PuD compute units.
fn narrow(subarrays: u32) -> SsdConfig {
    let mut cfg = SsdConfig::small_for_tests();
    cfg.dram.banks = 1;
    cfg.dram.subarrays_per_bank = subarrays;
    cfg
}

/// The test configuration with free bbops: every PuD service is zero long.
fn zero_bbop() -> SsdConfig {
    let mut cfg = SsdConfig::small_for_tests();
    cfg.dram.t_bbop = Duration::ZERO;
    cfg
}

/// Twenty instructions on 64-bit elements, which split into four
/// sub-operations each at the default row size. Sources alternate between
/// pages and earlier results, and every third instruction stores.
fn wide_program() -> VectorProgram {
    const OPS: [OpType; 10] = [
        OpType::Add,
        OpType::Xor,
        OpType::Mul,
        OpType::And,
        OpType::Sub,
        OpType::Max,
        OpType::CmpLt,
        OpType::Or,
        OpType::Min,
        OpType::Nand,
    ];
    let mut prog = VectorProgram::new("wide-64");
    for i in 0..20u32 {
        let page = |k: u32| Operand::page(u64::from(8 * (i + k)));
        let a = if i >= 2 && i % 2 == 0 {
            Operand::result(prog.insts()[(i - 2) as usize].id)
        } else {
            page(0)
        };
        let mut inst = VectorInst::binary(i, OPS[i as usize % OPS.len()], a, page(1)).elem_bits(64);
        if i % 3 == 2 {
            inst.dst_page = Some(LogicalPageId::new(u64::from(512 + 8 * i)));
        }
        prog.push(inst);
    }
    prog
}

/// One configuration's lines: each program under each PuD policy fresh,
/// then on the configuration's warm device, and the warm device's final
/// snapshot.
fn narrow_dram_lines(label: &str, cfg: SsdConfig, golden: &mut Golden) {
    let mut session = Session::builder(cfg).build();
    let device = session.create_device("warm");
    let mut programs: Vec<VectorProgram> = Workload::ALL
        .iter()
        .map(|w| w.program(Scale::test()).unwrap())
        .collect();
    programs.push(wide_program());
    for program in programs {
        let name = program.name().to_string();
        let id = session.register(program).unwrap();
        for policy in PUD_POLICIES {
            let request = RunRequest::new(id, policy).timeline(true);
            let fresh = session.submit(&request).unwrap();
            golden.outcome(format!("{label}/{name}/{policy}/fresh"), &fresh);
            let warm = session.submit(&request.on_device(device)).unwrap();
            golden.outcome(format!("{label}/{name}/{policy}/warm"), &warm);
        }
    }
    golden.snapshot(format!("{label}/final"), &session.device_snapshot(device));
}

#[test]
fn narrow_and_zero_cost_pud_pools_match_the_golden_output() {
    let mut golden = Golden::new("pud_narrow_dram");
    narrow_dram_lines("units1", narrow(1), &mut golden);
    narrow_dram_lines("units3", narrow(3), &mut golden);
    narrow_dram_lines("t_bbop0", zero_bbop(), &mut golden);
    golden.check();
}

/// Asserts that `result` is the configuration error a device constructor
/// returns for a degenerate geometry.
fn assert_invalid_config<T: std::fmt::Debug>(result: conduit_types::Result<T>, what: &str) {
    match result {
        Err(ConduitError::InvalidConfig { .. }) => {}
        other => panic!("{what}: expected InvalidConfig, got {other:?}"),
    }
}

/// Every way to get a device for `cfg` fails with `InvalidConfig` instead
/// of panicking: a pristine device, a good state wrapped in a device of
/// this configuration, and fresh and warm session runs.
fn assert_rejected(cfg: &SsdConfig, what: &str) {
    assert_invalid_config(SsdDevice::new(cfg), what);
    let good = DeviceState::new(&SsdConfig::small_for_tests()).unwrap();
    assert_invalid_config(SsdDevice::with_state(cfg, good), what);
    let mut session = Session::builder(cfg.clone()).build();
    let id = session.register(wide_program()).unwrap();
    let device = session.create_device("warm");
    let request = RunRequest::new(id, Policy::PudSsd);
    assert_invalid_config(session.submit(&request), what);
    assert_invalid_config(session.submit(&request.on_device(device)), what);
}

#[test]
fn rows_narrower_than_one_64_bit_element_are_rejected() {
    for row_bytes in [0, 2, 4, 7] {
        let mut cfg = SsdConfig::small_for_tests();
        cfg.dram.row_bytes = row_bytes;
        assert_rejected(&cfg, &format!("{row_bytes}-byte rows"));
    }
    // Eight bytes hold exactly one 64-bit element: each lane of a 64-bit
    // PuD instruction is its own sub-operation.
    let mut cfg = SsdConfig::small_for_tests();
    cfg.dram.row_bytes = u64::from(MAX_ELEM_BITS) / 8;
    let mut dev = SsdDevice::new(&cfg).unwrap();
    let add = dev.estimate_strip(OpType::Add, 64, 16, 128);
    assert_eq!(add.pud.unwrap().sub_ops, 16);
    let c = dev
        .execute(Resource::PudSsd, &add, &[], SimTime::ZERO)
        .unwrap();
    assert!(c.ready > SimTime::ZERO);
    let mut session = Session::builder(cfg).build();
    let id = session.register(wide_program()).unwrap();
    let outcome = session
        .submit(&RunRequest::new(id, Policy::PudSsd))
        .unwrap();
    assert_eq!(outcome.summary.offload_mix.pud, 20);
}

#[test]
fn zero_byte_flash_pages_are_rejected() {
    let mut cfg = SsdConfig::small_for_tests();
    cfg.flash.page_bytes = 0;
    assert_rejected(&cfg, "zero-byte pages");
}
