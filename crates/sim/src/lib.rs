//! # conduit-sim
//!
//! Event-driven SSD simulation substrate for the Conduit NDP framework.
//!
//! The paper evaluates Conduit on an in-house event-driven SSD simulator that
//! inherits its core SSD model from MQSim and adds NDP compute models. This
//! crate is the Rust equivalent:
//!
//! * [`SharedResource`] / [`ResourcePool`] — busy-time tracking for every
//!   contended unit (flash channels and dies, DRAM banks and bus, controller
//!   cores, the PCIe link), which is how queueing delays and contention are
//!   modelled,
//! * [`SsdDevice`] — the integrated device: FTL + flash + DRAM + controller
//!   models wired to the contention timelines, exposing the primitive
//!   operations the runtime offloading engine schedules (loading operands,
//!   committing results, executing IFP/PuD/ISP computations, host transfers),
//! * [`StripEstimates`] — the cost estimates of one instruction shape
//!   ([`SsdDevice::estimate_strip`]), evaluated from the substrate models:
//!   the cost function reads them, and PuD and ISP execution charge them,
//!   so the engine's per-run row of them is the only per-shape cache,
//! * [`HostCpuModel`] / [`HostGpuModel`] — analytical roofline models of the
//!   host processors used by the outside-storage-processing baselines,
//! * [`EnergyMeter`], [`LatencyStats`], [`CostBreakdown`] — the accounting
//!   used to regenerate the paper's figures (energy split into data movement
//!   vs compute, tail latencies, execution-time breakdowns).
//!
//! ## Example
//!
//! ```
//! use conduit_sim::SsdDevice;
//! use conduit_types::{DataLocation, LogicalPageId, OpType, SimTime, SsdConfig};
//!
//! let mut dev = SsdDevice::new(&SsdConfig::small_for_tests())?;
//! dev.map_pages(&[LogicalPageId::new(0)])?;
//! let load = dev.ensure_at(LogicalPageId::new(0), DataLocation::Dram, SimTime::ZERO)?;
//! let add = dev.estimate_strip(OpType::Add, 32, 4096, 16 * 1024);
//! let exec = dev.execute_pud(&add, load.ready)?;
//! assert!(exec.ready > load.ready);
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

mod device;
mod energy;
mod estimates;
mod host;
mod resources;
mod state;
mod stats;

pub use device::{OpCompletion, SsdDevice, StripWindow};
pub use energy::EnergyMeter;
pub use estimates::{CostEstimate, StripEstimates, LOC_COUNT, RESOURCE_COUNT};
pub use host::{HostCpuModel, HostGpuModel};
pub use resources::{ResourcePool, SharedResource};
pub use state::{
    DeviceDelta, DeviceSnapshot, DeviceState, DEVICE_STATE_FORMAT_VERSION, DEVICE_STATE_MAGIC,
};
pub use stats::{CostBreakdown, LaneStats, LatencyStats};
