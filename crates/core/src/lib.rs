//! # conduit
//!
//! Conduit: a general-purpose, programmer-transparent near-data-processing
//! (NDP) framework that dynamically offloads vectorized instructions across
//! the three heterogeneous compute resources of a modern SSD — embedded
//! controller cores (ISP), SSD-internal DRAM (PuD-SSD) and NAND flash chips
//! (IFP).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`CostFunction`] — the six-feature holistic cost model (operation type,
//!   operand location, data-dependence delay, resource queueing delay, data
//!   movement latency, expected computation latency; Eqns. 1–2),
//! * [`Policy`] — Conduit plus every baseline the paper evaluates against
//!   (host CPU/GPU, ISP-only, PuD-SSD, Flash-Cosmos, Ares-Flash,
//!   BW-Offloading, DM-Offloading, the unrealizable Ideal policy, and the
//!   naive IFP+ISP combination from the motivation case study),
//! * [`OverheadModel`] — the runtime latency and storage overheads of §4.5:
//!   feature collection and the instruction-transformation table lookup
//!   charged per instruction, and the size of the translation table (one
//!   entry per operation each resource supports),
//! * [`RuntimeEngine`] — the runtime offloading engine that executes a
//!   [`conduit_types::VectorProgram`] on a simulated [`conduit_sim::SsdDevice`]
//!   under a chosen policy,
//! * [`Session`] — the service-level API on top of the engine: register a
//!   vectorized program once (persistable via the compact registry
//!   serialization), then [`Session::submit`] [`RunRequest`]s, each one
//!   run under a policy with an opt-in timeline, getting back a cheap
//!   [`RunSummary`] (times, energy split, histogram-backed latency
//!   percentiles, offload mix) plus opt-in [`RunArtifacts`] (the full
//!   timeline). [`Session::submit_batch`] runs one task per device lane,
//!   then one per fresh request, on the calling thread plus scoped helper
//!   threads, with results bit-identical for every worker count; named
//!   **warm devices** ([`Session::create_device`],
//!   [`RunRequest::on_device`]) age their FTL/coherence/GC/wear state
//!   across their request streams ([`Session::device_snapshot`],
//!   [`RunSummary::device_delta`]), with open-loop arrivals via
//!   [`RunRequest::arriving_at`].
//!
//! ## Quick start
//!
//! ```
//! use conduit::{Policy, RunRequest, Session};
//! use conduit_types::{OpType, Operand, SsdConfig, VectorProgram};
//!
//! // A tiny program: c = a ^ b; d = c + a.
//! let mut prog = VectorProgram::new("demo");
//! let x = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
//! prog.push_binary(OpType::Add, Operand::result(x), Operand::page(0));
//!
//! // Register once; run under as many policies as you like.
//! let mut session = Session::builder(SsdConfig::small_for_tests()).build();
//! let id = session.register(prog)?;
//!
//! let conduit = session.submit(&RunRequest::new(id, Policy::Conduit))?;
//! let cpu = session.submit(&RunRequest::new(id, Policy::HostCpu))?;
//! assert_eq!(conduit.summary.instructions, 2);
//! assert!(conduit.summary.speedup_over(&cpu.summary) > 0.0);
//! assert!(conduit.summary.percentile(0.99) <= conduit.summary.total_time);
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

mod batch;
mod cost;
mod engine;
mod overhead;
mod policy;
mod report;
mod session;

pub use batch::{Strip, StripPlan};
pub use cost::{CostFeatures, CostFunction};
pub use engine::{RunOptions, RuntimeEngine};
pub use overhead::{OverheadModel, StorageOverhead};
pub use policy::{Policy, PolicyContext};
pub use report::{gmean, EnergySummary, OffloadMix, OverheadReport, RunReport, TimelineEntry};
pub use session::{
    DeviceHandle, PlanCacheStats, ProgramId, ProgramRegistry, RunArtifacts, RunOutcome, RunRequest,
    RunSummary, Session, SessionBuilder, DEFAULT_DRR_QUANTUM, DEFAULT_PERCENTILES,
    DEVICE_CHECKPOINT_FORMAT_VERSION, DEVICE_CHECKPOINT_MAGIC, REGISTRY_FORMAT_VERSION,
    REGISTRY_MAGIC,
};
