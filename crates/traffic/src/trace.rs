//! The CTR1 replayable trace format.
//!
//! A [`Trace`] is a [`crate::TrafficMix`] plus the fully-unrolled arrival
//! records it generated, sorted by `(arrival, tenant)`. Traces serialize to
//! the compact versioned **CTR1** wire format:
//!
//! ```text
//! magic "CTR1" | version u16 | scale (data u32, steps u32)
//! tenant count u16
//!   per tenant: name | device | workload u8 | policy u8 | arrival spec
//!               | weight u32 | slo flags u8 | optional slo targets
//! record count u64
//!   per record: varint delta-from-previous-arrival | varint tenant index
//! fnv1a checksum u64 over everything above
//! ```
//!
//! Every tenant carries its **scheduling block** — weighted-fair weight
//! plus optional SLO targets ([`crate::SloTarget`]) — even at the defaults
//! (weight 1, no SLOs). [`TRACE_VERSION`] is the only version written or
//! read; a trace of any other version is rejected.
//!
//! All integers are little-endian; names are `u16`-length-prefixed UTF-8.
//! Arrivals are sorted, so delta encoding makes records small (a varint
//! delta plus a one-byte tenant index for small mixes) and makes the
//! nondecreasing invariant structural: unsigned deltas cannot encode a
//! regression. Decoding is hardened the same way checkpoint decoding is —
//! every read is bounds-checked, counts are validated against the bytes
//! actually present, unknown tags/codes and non-canonical varints are
//! rejected, and the trailing checksum rejects any corruption of the body
//! before field-level parsing is even attempted.

use conduit::{DeviceHandle, ProgramId, RunRequest, Session};
use conduit_types::bytes::{fnv1a, put_u16, put_u32, put_u64, put_varint, Reader};
use conduit_types::{ConduitError, Duration, Result, SimTime};
use conduit_workloads::Scale;

use crate::mix::{
    policy_code, policy_from_code, put_scheduling, put_spec, put_str, read_scheduling, read_spec,
    read_str, validate_tenant, TenantSpec, TrafficMix,
};
use crate::mix::{workload_code, workload_from_code};

/// Magic bytes opening every serialized trace.
pub const TRACE_MAGIC: [u8; 4] = *b"CTR1";

/// The trace format version: every tenant carries a scheduling block
/// (weight + SLO targets).
pub const TRACE_VERSION: u16 = 2;

/// Upper bound on tenants in a serialized trace.
pub const MAX_TENANTS: usize = 1024;

/// One arrival: request number `n` of the trace belongs to tenant
/// `records[n].tenant` and arrives at `records[n].arrival` on the batch
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Index into [`TrafficMix::tenants`].
    pub tenant: u16,
    /// Arrival time on the batch timeline (time zero = batch submission).
    pub arrival: SimTime,
}

/// A replayable traffic trace: the mix that produced it plus every arrival,
/// sorted by `(arrival, tenant)`.
///
/// Traces are value types: two traces are equal iff they replay
/// identically, and [`Trace::to_bytes`] is a pure function of the value, so
/// equal traces serialize to identical bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The tenant mix the records reference by index.
    pub mix: TrafficMix,
    /// The arrivals, sorted by `(arrival, tenant)`.
    pub records: Vec<TraceRecord>,
}

/// A trace instantiated against a [`Session`]: one [`RunRequest`] per trace
/// record, in record order, plus the per-tenant program and device bindings
/// used to build them.
#[derive(Debug, Clone)]
pub struct TraceRun {
    /// One request per trace record, in record (arrival) order — ready for
    /// [`Session::submit_batch`].
    pub requests: Vec<RunRequest>,
    /// `tenants[n]` is the tenant index of `requests[n]`.
    pub tenants: Vec<u16>,
    /// Per-tenant registered program ids (parallel to
    /// [`TrafficMix::tenants`]).
    pub programs: Vec<ProgramId>,
    /// Per-tenant device handles (tenants naming the same device share a
    /// handle).
    pub devices: Vec<DeviceHandle>,
}

impl Trace {
    /// Serializes the trace to the CTR1 wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&TRACE_MAGIC);
        put_u16(&mut out, TRACE_VERSION);
        put_u32(&mut out, self.mix.scale.data);
        put_u32(&mut out, self.mix.scale.steps);
        put_u16(&mut out, self.mix.tenants.len() as u16);
        for tenant in &self.mix.tenants {
            put_str(&mut out, &tenant.name);
            put_str(&mut out, &tenant.device);
            out.push(workload_code(tenant.workload));
            out.push(policy_code(tenant.policy));
            put_spec(&mut out, &tenant.arrivals);
            put_scheduling(&mut out, tenant);
        }
        put_u64(&mut out, self.records.len() as u64);
        let mut prev = SimTime::ZERO;
        for record in &self.records {
            debug_assert!(record.arrival >= prev, "records must be sorted");
            put_varint(&mut out, record.arrival.as_ps() - prev.as_ps());
            put_varint(&mut out, u64::from(record.tenant));
            prev = record.arrival;
        }
        let checksum = fnv1a(&out);
        put_u64(&mut out, checksum);
        out
    }

    /// Decodes a trace from the CTR1 wire format.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] on any malformed input:
    /// bad magic or version, checksum mismatch, truncation, trailing bytes,
    /// invalid names/codes/specs, record counts that cannot fit in the
    /// remaining bytes, out-of-range tenant indices, or arrival deltas that
    /// overflow the timeline.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 8 {
            return Err(ConduitError::corrupt_checkpoint(
                "trace shorter than its checksum",
            ));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(tail.try_into().expect("len 8"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "trace checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            )));
        }
        let mut r = Reader::new(body);
        if r.take(4)? != TRACE_MAGIC {
            return Err(ConduitError::corrupt_checkpoint("bad trace magic"));
        }
        let version = r.u16()?;
        if version != TRACE_VERSION {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "unsupported trace version {version} (expected {TRACE_VERSION})"
            )));
        }
        let data = r.u32()?;
        let steps = r.u32()?;
        if data == 0 || steps == 0 {
            return Err(ConduitError::corrupt_checkpoint(
                "trace scale has a zero dimension",
            ));
        }
        let tenant_count = r.u16()? as usize;
        if tenant_count > MAX_TENANTS {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "trace declares {tenant_count} tenants (limit {MAX_TENANTS})"
            )));
        }
        let mut tenants = Vec::with_capacity(tenant_count);
        for _ in 0..tenant_count {
            let name = read_str(&mut r)?;
            let device = read_str(&mut r)?;
            let workload = workload_from_code(r.u8()?)?;
            let policy = policy_from_code(r.u8()?)?;
            let arrivals = read_spec(&mut r)?;
            let (weight, slo) = read_scheduling(&mut r)?;
            tenants.push(TenantSpec {
                name,
                device,
                workload,
                policy,
                arrivals,
                weight,
                slo,
            });
        }
        let record_count = r.counter()?;
        // Each record is at least two bytes (one varint byte each for delta
        // and tenant), so a count the remaining bytes cannot hold is corrupt
        // — checked before allocating.
        if record_count > (r.remaining() / 2) as u64 {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "trace declares {record_count} records but only {} bytes remain",
                r.remaining()
            )));
        }
        let mut records = Vec::with_capacity(record_count as usize);
        let mut prev: u64 = 0;
        for _ in 0..record_count {
            let delta = r.varint()?;
            let tenant = r.varint()?;
            if tenant >= tenant_count as u64 {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "trace record references tenant {tenant} of {tenant_count}"
                )));
            }
            prev = prev.checked_add(delta).ok_or_else(|| {
                ConduitError::corrupt_checkpoint("trace arrival delta overflows the timeline")
            })?;
            records.push(TraceRecord {
                tenant: tenant as u16,
                arrival: SimTime::from_ps(prev),
            });
        }
        if !r.finished() {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "{} trailing bytes after trace records",
                r.remaining()
            )));
        }
        let mix = TrafficMix {
            scale: Scale { data, steps },
            tenants,
        };
        for tenant in &mix.tenants {
            validate_tenant(tenant).map_err(|e| {
                ConduitError::corrupt_checkpoint(format!("trace tenant invalid: {e}"))
            })?;
        }
        Ok(Trace { mix, records })
    }

    /// The arrival of the last record, or `None` for an empty trace.
    pub fn horizon(&self) -> Option<SimTime> {
        self.records.last().map(|r| r.arrival)
    }

    /// Number of records belonging to `tenant`.
    pub fn tenant_records(&self, tenant: u16) -> usize {
        self.records.iter().filter(|r| r.tenant == tenant).count()
    }

    /// Registers every tenant's workload program and device with `session`
    /// and builds one [`RunRequest`] per record, in record order.
    ///
    /// Both [`Session::register`] (content-addressed) and
    /// [`Session::create_device`] (name-keyed) are idempotent, so
    /// instantiating the same trace twice — or two traces sharing tenants —
    /// reuses the same programs and devices. Tenants naming the same device
    /// genuinely share its FIFO lane and die state; that is the
    /// interference configuration.
    ///
    /// Requests are built with the summary percentile set left at its
    /// default; callers needing custom percentiles can map over
    /// [`TraceRun::requests`] afterwards.
    pub fn instantiate(&self, session: &mut Session) -> Result<TraceRun> {
        let mut programs = Vec::with_capacity(self.mix.tenants.len());
        let mut devices = Vec::with_capacity(self.mix.tenants.len());
        for tenant in &self.mix.tenants {
            let program = tenant.workload.program(self.mix.scale)?;
            programs.push(session.register(program)?);
            devices.push(session.create_device(&tenant.device));
        }
        let mut requests = Vec::with_capacity(self.records.len());
        let mut tenants = Vec::with_capacity(self.records.len());
        for record in &self.records {
            let t = record.tenant as usize;
            if t >= programs.len() {
                return Err(ConduitError::invalid_config(format!(
                    "trace record references tenant {t} of {}",
                    programs.len()
                )));
            }
            // The tenant index is the weighted-fair flow id: tenants sharing
            // a device with different weights split its lane by deficit
            // round robin; the all-default case keeps the lane plain FIFO.
            requests.push(
                RunRequest::new(programs[t], self.mix.tenants[t].policy)
                    .on_device(devices[t])
                    .arriving_at(record.arrival)
                    .weighted(record.tenant as u32, self.mix.tenants[t].weight),
            );
            tenants.push(record.tenant);
        }
        Ok(TraceRun {
            requests,
            tenants,
            programs,
            devices,
        })
    }
}

/// Convenience: generates a mix over a horizon and serializes it in one
/// step (the common "export a trace" path).
pub fn export(mix: &TrafficMix, horizon: Duration) -> Result<Vec<u8>> {
    Ok(mix.generate(horizon)?.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::ArrivalSpec;
    use conduit::Policy;
    use conduit_workloads::Workload;

    fn sample_mix() -> TrafficMix {
        TrafficMix::new(Scale::test())
            .tenant(TenantSpec::new(
                "victim",
                "shared",
                Workload::Jacobi1d,
                Policy::Conduit,
                ArrivalSpec::Deterministic {
                    interarrival: Duration::from_us(4.0),
                    phase: Duration::ZERO,
                },
            ))
            .tenant(TenantSpec::new(
                "antagonist",
                "shared",
                Workload::LlmTraining,
                Policy::HostCpu,
                ArrivalSpec::MarkovOnOff {
                    burst_interarrival: Duration::from_us(1.0),
                    mean_on: Duration::from_us(10.0),
                    mean_off: Duration::from_us(10.0),
                    seed: 7,
                },
            ))
    }

    fn sample_trace() -> Trace {
        sample_mix().generate(Duration::from_us(40.0)).unwrap()
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let trace = sample_trace();
        assert!(!trace.records.is_empty());
        let bytes = trace.to_bytes();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), TRACE_VERSION);
        let decoded = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.to_bytes(), bytes, "re-encode must be identical");
    }

    #[test]
    fn weighted_mix_roundtrips_as_version_two() {
        use crate::mix::SloTarget;
        let mut mix = sample_mix();
        mix.tenants[0].weight = 3;
        mix.tenants[1].slo = SloTarget {
            max_p99: Some(Duration::from_us(50.0)),
            max_lane_occupancy: Some(0.9),
        };
        let trace = mix.generate(Duration::from_us(40.0)).unwrap();
        let bytes = trace.to_bytes();
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), TRACE_VERSION);
        let decoded = Trace::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, trace);
        assert_eq!(decoded.to_bytes(), bytes, "re-encode must be identical");
        // Truncation hardening holds for the extended tenant table too.
        for len in 0..bytes.len() {
            assert!(Trace::from_bytes(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let trace = TrafficMix::new(Scale::test())
            .generate(Duration::from_us(1.0))
            .unwrap();
        assert!(trace.records.is_empty());
        let decoded = Trace::from_bytes(&trace.to_bytes()).unwrap();
        assert_eq!(decoded, trace);
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = sample_trace().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                Trace::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must be rejected"
            );
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_checksum() {
        let trace = sample_trace();
        // Flipping any body byte breaks the checksum; flipping checksum
        // bytes breaks the match. Spot-check the interesting offsets.
        for offset in [0usize, 4, 5] {
            let mut bytes = trace.to_bytes();
            bytes[offset] ^= 0xFF;
            assert!(Trace::from_bytes(&bytes).is_err());
        }
        let mut bytes = trace.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(Trace::from_bytes(&bytes).is_err(), "checksum flip");
    }

    #[test]
    fn retired_version_one_traces_are_rejected() {
        // A trace relabelled as version 1 (a layout without scheduling
        // blocks) and resealed with a fresh checksum, since a plain version
        // flip fails the checksum first, is a version error, never misread.
        let mut bytes = sample_trace().to_bytes();
        bytes.truncate(bytes.len() - 8);
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        let checksum = fnv1a(&bytes);
        put_u64(&mut bytes, checksum);
        let err = Trace::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, ConduitError::CorruptCheckpoint { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn rejects_oversized_record_count() {
        // Corrupt the record count to a huge value and re-seal the
        // checksum: the structural count-vs-remaining check must fire.
        let trace = sample_trace();
        let mut bytes = trace.to_bytes();
        bytes.truncate(bytes.len() - 8);
        // The record count sits right before the first record; rebuild the
        // encoding with a lying count instead of patching offsets.
        let mut forged = Vec::new();
        forged.extend_from_slice(&TRACE_MAGIC);
        put_u16(&mut forged, TRACE_VERSION);
        put_u32(&mut forged, trace.mix.scale.data);
        put_u32(&mut forged, trace.mix.scale.steps);
        put_u16(&mut forged, trace.mix.tenants.len() as u16);
        for tenant in &trace.mix.tenants {
            put_str(&mut forged, &tenant.name);
            put_str(&mut forged, &tenant.device);
            forged.push(workload_code(tenant.workload));
            forged.push(policy_code(tenant.policy));
            put_spec(&mut forged, &tenant.arrivals);
            put_scheduling(&mut forged, tenant);
        }
        put_u64(&mut forged, 1 << 40);
        let checksum = fnv1a(&forged);
        put_u64(&mut forged, checksum);
        let err = Trace::from_bytes(&forged).unwrap_err();
        assert!(
            err.to_string().contains("records"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn instantiation_is_idempotent_and_shares_devices() {
        let trace = sample_trace();
        let mut session = Session::builder(conduit_types::SsdConfig::small_for_tests())
            .serial()
            .build();
        let run_a = trace.instantiate(&mut session).unwrap();
        let run_b = trace.instantiate(&mut session).unwrap();
        assert_eq!(run_a.programs, run_b.programs);
        assert_eq!(run_a.devices, run_b.devices);
        // Both tenants name "shared", so they resolve to one handle.
        assert_eq!(run_a.devices[0], run_a.devices[1]);
        assert_eq!(run_a.requests.len(), trace.records.len());
    }

    #[test]
    fn replay_is_bit_identical_to_source_batch() {
        let trace = sample_trace();
        let bytes = trace.to_bytes();
        let replayed = Trace::from_bytes(&bytes).unwrap();

        let cfg = conduit_types::SsdConfig::small_for_tests();
        let mut s1 = Session::builder(cfg.clone()).serial().build();
        let run1 = trace.instantiate(&mut s1).unwrap();
        let out1 = s1.submit_batch(&run1.requests).unwrap();

        let mut s2 = Session::builder(cfg).serial().build();
        let run2 = replayed.instantiate(&mut s2).unwrap();
        let out2 = s2.submit_batch(&run2.requests).unwrap();

        assert_eq!(out1.len(), out2.len());
        for (a, b) in out1.iter().zip(&out2) {
            assert_eq!(a.summary, b.summary);
        }
    }
}
