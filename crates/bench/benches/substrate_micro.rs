//! Microbenchmarks of the substrate models themselves: per-operation cost
//! evaluation for each compute resource, the precomputed estimate-table
//! lookups that replace them on the hot path, address arithmetic, the
//! auto-vectorizer, and the allocation-free energy meter.
//! These bound the simulator's own overhead per modelled instruction.

use conduit_bench::micro::{self, black_box};
use conduit_ctrl::IspModel;
use conduit_dram::PudModel;
use conduit_flash::{FlashGeometry, IfpModel, IfpPlacement};
use conduit_sim::{EnergyMeter, SsdDevice};
use conduit_types::{Energy, EnergySource, FlashConfig, OpType, Resource, SsdConfig};
use conduit_vectorizer::Vectorizer;
use conduit_workloads::{Scale, Workload};

fn main() {
    let cfg = SsdConfig::default();
    let ifp = IfpModel::new(&cfg.flash);
    let pud = PudModel::new(&cfg.dram);
    let isp = IspModel::new(&cfg.ctrl);
    let geo = FlashGeometry::new(&FlashConfig::default());
    let device = SsdDevice::new(&cfg).unwrap();

    micro::bench("ifp_op_cost_and", || {
        ifp.op_cost(
            black_box(OpType::And),
            32,
            4096,
            IfpPlacement::SameBlock { operands: 2 },
        )
        .unwrap()
        .latency
    });

    micro::bench("pud_op_cost_mul", || {
        pud.op_cost(black_box(OpType::Mul), 32, 4096, 8)
            .unwrap()
            .latency
    });

    micro::bench("isp_op_cost_add", || {
        isp.op_cost(black_box(OpType::Add), 32, 4096).latency
    });

    // The estimate-table lookup that replaces the three model evaluations on
    // the per-instruction hot path (canonical shape = table hit).
    micro::bench("device_estimate_compute_table_hit", || {
        device.estimate_compute(black_box(Resource::PudSsd), OpType::Mul, 32, 4096)
    });
    micro::bench("device_estimate_compute_fallback", || {
        device.estimate_compute(black_box(Resource::PudSsd), OpType::Mul, 32, 1024)
    });

    // The allocation-free energy meter charge (was: String key + BTreeMap).
    micro::bench("energy_meter_charge", || {
        let mut m = EnergyMeter::new();
        for _ in 0..64 {
            m.charge(black_box(EnergySource::Ifp), Energy::from_nj(1.0));
            m.charge(black_box(EnergySource::DramBus), Energy::from_nj(1.0));
        }
        m.total()
    });

    micro::bench("flash_addr_roundtrip", || {
        let addr = geo.addr_of(black_box(1_234_567));
        geo.index_of(addr)
    });

    let kernel = Workload::Jacobi1d.kernel(Scale::test());
    micro::bench("vectorize_jacobi1d", || {
        Vectorizer::default()
            .vectorize(black_box(&kernel))
            .unwrap()
            .program
            .len()
    });
}
