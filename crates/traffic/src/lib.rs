//! # conduit-traffic
//!
//! The traffic subsystem of the Conduit reproduction: deterministic
//! arrival-process generators, replayable traffic traces and tenant-mix
//! descriptors for cross-tenant interference studies.
//!
//! The paper's multi-tenant evaluation needs one thing the closed-loop
//! harness cannot provide: *reproducible contention*. This crate supplies
//! it in three layers:
//!
//! * [`process`] — arrival processes behind the [`ArrivalProcess`] trait:
//!   [`ArrivalSpec::Deterministic`] (fixed interarrival plus phase),
//!   [`ArrivalSpec::Poisson`] (exponential gaps) and
//!   [`ArrivalSpec::MarkovOnOff`] (a two-state modulated burst process).
//!   The stochastic processes draw from the counted splitmix64 stream used
//!   by fault injection, so a generator's output is a pure function of
//!   `(spec, draw index)` — replayable on any machine, any worker count.
//! * [`mix`] — [`TrafficMix`]: tenants ([`TenantSpec`]) binding a workload
//!   program, target device, offloading policy and arrival process;
//!   [`TrafficMix::generate`] unrolls the mix over a horizon into a sorted
//!   trace.
//! * [`trace`] — the compact versioned **CTR1** wire format
//!   ([`Trace::to_bytes`] / [`Trace::from_bytes`]): delta-varint arrival
//!   records behind a checksum, with checkpoint-grade hardened decoding.
//!   [`Trace::instantiate`] turns a trace back into
//!   [`conduit::RunRequest`]s against a [`conduit::Session`], ready for
//!   `submit_batch`.
//!
//! Tenants that name the same device contend for its FIFO lane, dies,
//! channels, GC debt and coherence state — that is the shared-channel
//! interference configuration the `repro interference` target sweeps.

pub mod mix;
pub mod process;
pub mod trace;

pub use mix::{
    SloTarget, TenantSpec, TrafficMix, MAX_GENERATED_PER_TENANT, MAX_NAME_LEN, MAX_WEIGHT,
};
pub use process::{ArrivalProcess, ArrivalSpec};
pub use trace::{Trace, TraceRecord, TraceRun, MAX_TENANTS, TRACE_MAGIC, TRACE_VERSION};
