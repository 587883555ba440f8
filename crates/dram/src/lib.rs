//! # conduit-dram
//!
//! SSD-internal DRAM model with processing-using-DRAM (PuD-SSD) support for
//! the Conduit NDP framework.
//!
//! Modern SSDs ship a few gigabytes of low-power DRAM for FTL metadata and
//! page caching; PuD-SSD repurposes that DRAM as a compute substrate by
//! orchestrating ACT/PRE command sequences (Ambit/SIMDRAM-style bulk bitwise
//! operations, RowClone copies, and MIMDRAM/Proteus-style arithmetic).
//!
//! The crate provides:
//!
//! * [`DramTiming`] — un-contended latencies and energies of ordinary DRAM
//!   accesses (row activation, read/write of cached pages, bus transfers),
//! * [`PudModel`] — the compute model: how many bulk-bitwise operation
//!   primitives (bbops) each vector operation needs, and the resulting
//!   latency/energy for row-granular sub-operations spread across banks,
//! * [`BankState`] — open-row bookkeeping used by the event-driven simulator
//!   for row-hit/row-miss accounting.
//!
//! ## Example
//!
//! ```
//! use conduit_dram::PudModel;
//! use conduit_types::{DramConfig, OpType};
//!
//! let pud = PudModel::new(&DramConfig::default());
//! let and = pud.op_cost(OpType::And, 32, 4096, 8)?;
//! let mul = pud.op_cost(OpType::Mul, 32, 4096, 8)?;
//! assert!(mul.latency > and.latency * 10);
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

mod bank;
mod pud;
mod timing;

pub use bank::BankState;
pub use pud::{PudCost, PudModel, PudShape};
pub use timing::DramTiming;
