//! Tenant-mix descriptors: which tenants exist, what each one runs, where,
//! under which policy, and how its requests arrive.
//!
//! A [`TrafficMix`] is the declarative input of the traffic subsystem:
//! [`TrafficMix::generate`] unrolls every tenant's [`ArrivalSpec`] into a
//! sorted, replayable [`crate::Trace`]. Workloads and policies are encoded
//! with **stable one-byte codes** via exhaustive matches, so adding an enum
//! variant upstream without assigning it a code is a compile error rather
//! than silent trace-format drift.

use conduit::Policy;
use conduit_types::bytes::{put_u16, put_u32, put_u64, Reader};
use conduit_types::{ConduitError, Duration, Result, SimTime};
use conduit_workloads::{Scale, Workload};

use crate::process::ArrivalSpec;
use crate::trace::{Trace, TraceRecord, MAX_TENANTS};

/// Longest tenant/device name the trace format accepts.
pub const MAX_NAME_LEN: usize = 256;

/// Upper bound on arrivals one tenant contributes to a generated trace —
/// a backstop so a pathological spec (picosecond gaps, end-of-time horizon)
/// produces a bounded trace instead of an unbounded loop.
pub const MAX_GENERATED_PER_TENANT: usize = 1 << 20;

/// Largest weighted-fair scheduling weight a tenant may carry.
pub const MAX_WEIGHT: u32 = 1 << 16;

/// Per-tenant service-level objectives, enforced by fleet admission control
/// (`conduit_fleet`): a request is **shed** — with a typed, counted
/// [`ConduitError::AdmissionRejected`] instead of ever running — when
/// serving it would violate a target the tenant's recent, windowed
/// statistics already break. `None` targets are unconstrained; the default
/// is fully unconstrained (admission always passes).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SloTarget {
    /// Largest acceptable p99 arrival-to-completion latency over the
    /// tenant's served requests.
    pub max_p99: Option<Duration>,
    /// Largest acceptable busy-fraction of the tenant's device lane over
    /// the last admission window (`0.0 < target <= 1.0`).
    pub max_lane_occupancy: Option<f64>,
}

/// One tenant of a traffic mix: a workload program bound to a device, a
/// placement policy and an arrival process.
///
/// Two tenants may name the **same device** — that is the shared-channel
/// interference configuration: their requests then serialize through one
/// FIFO lane and contend for the same dies, channels, GC debt and coherence
/// state. Distinct devices isolate them completely.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (reporting only; must be nonempty, at most
    /// [`MAX_NAME_LEN`] bytes).
    pub name: String,
    /// Name of the warm device the tenant's requests target
    /// ([`conduit::Session::create_device`] is idempotent, so tenants
    /// sharing a name share a device).
    pub device: String,
    /// The workload program the tenant runs per request.
    pub workload: Workload,
    /// The offloading policy its requests run under.
    pub policy: Policy,
    /// How the tenant's requests arrive on the batch timeline.
    pub arrivals: ArrivalSpec,
    /// Weighted-fair scheduling weight of the tenant's requests on its
    /// device lane (`1..=`[`MAX_WEIGHT`]; default 1). Replay maps this onto
    /// [`conduit::RunRequest::weighted`] with the tenant index as the flow
    /// id, so tenants sharing a device with *different* weights split the
    /// lane by deficit round robin; uniform weights keep the lane plain
    /// FIFO.
    pub weight: u32,
    /// Service-level objectives fleet admission control enforces for this
    /// tenant (default: unconstrained).
    pub slo: SloTarget,
}

impl TenantSpec {
    /// A tenant with default scheduling weight (1) and unconstrained SLOs.
    pub fn new(
        name: impl Into<String>,
        device: impl Into<String>,
        workload: Workload,
        policy: Policy,
        arrivals: ArrivalSpec,
    ) -> Self {
        TenantSpec {
            name: name.into(),
            device: device.into(),
            workload,
            policy,
            arrivals,
            weight: 1,
            slo: SloTarget::default(),
        }
    }

    /// Builder-style: sets the tenant's weighted-fair scheduling weight.
    pub fn weighted(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Builder-style: sets the tenant's SLO targets.
    pub fn with_slo(mut self, slo: SloTarget) -> Self {
        self.slo = slo;
        self
    }
}

/// A complete tenant mix plus the workload scale its programs are generated
/// at. This is the descriptor a [`crate::Trace`] embeds, so a persisted
/// trace replays against the exact programs that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMix {
    /// Scale every tenant's workload program is generated at.
    pub scale: Scale,
    /// The tenants, in stable order (trace records reference them by
    /// index).
    pub tenants: Vec<TenantSpec>,
}

impl TrafficMix {
    /// A mix with no tenants at the given scale.
    pub fn new(scale: Scale) -> Self {
        TrafficMix {
            scale,
            tenants: Vec::new(),
        }
    }

    /// Builder-style: appends a tenant.
    pub fn tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Unrolls every tenant's arrival process over the half-open horizon
    /// `[0, horizon)` into a trace, sorted by `(arrival, tenant index)`.
    ///
    /// Generation is deterministic: the same mix and horizon always produce
    /// the same trace, and the per-tenant draw counts are pure functions of
    /// the spec (counted-draw replayability). A stream that saturates at
    /// [`SimTime::MAX`] stops contributing ("never" arrives); a tenant
    /// contributes at most [`MAX_GENERATED_PER_TENANT`] records.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidConfig`] if the mix has more than
    /// [`MAX_TENANTS`] tenants (the most a trace can carry) or any tenant is
    /// invalid (empty or oversized names, zero-gap arrival spec).
    pub fn generate(&self, horizon: Duration) -> Result<Trace> {
        if self.tenants.len() > MAX_TENANTS {
            return Err(ConduitError::invalid_config(format!(
                "mix has {} tenants (limit {MAX_TENANTS})",
                self.tenants.len()
            )));
        }
        for tenant in &self.tenants {
            validate_tenant(tenant)?;
        }
        let end = SimTime::ZERO + horizon;
        let mut records: Vec<TraceRecord> = Vec::new();
        for (index, tenant) in self.tenants.iter().enumerate() {
            let mut generator = tenant.arrivals.generator();
            for _ in 0..MAX_GENERATED_PER_TENANT {
                let arrival = generator.next_arrival();
                if arrival >= end || arrival == SimTime::MAX {
                    break;
                }
                records.push(TraceRecord {
                    tenant: index as u16,
                    arrival,
                });
            }
        }
        // Stable: per-tenant order (already nondecreasing) is preserved for
        // equal keys, so ties resolve deterministically by tenant index.
        records.sort_by_key(|r| (r.arrival, r.tenant));
        Ok(Trace {
            mix: self.clone(),
            records,
        })
    }
}

/// Validates one tenant's fields (names and arrival spec).
pub(crate) fn validate_tenant(tenant: &TenantSpec) -> Result<()> {
    for (what, s) in [
        ("tenant name", &tenant.name),
        ("device name", &tenant.device),
    ] {
        if s.is_empty() || s.len() > MAX_NAME_LEN {
            return Err(ConduitError::invalid_config(format!(
                "{what} must be 1..={MAX_NAME_LEN} bytes, got {} bytes",
                s.len()
            )));
        }
    }
    if !tenant.arrivals.is_valid() {
        return Err(ConduitError::invalid_config(format!(
            "tenant {}: arrival spec has a zero gap: {:?}",
            tenant.name, tenant.arrivals
        )));
    }
    if tenant.weight == 0 || tenant.weight > MAX_WEIGHT {
        return Err(ConduitError::invalid_config(format!(
            "tenant {}: weight must be 1..={MAX_WEIGHT}, got {}",
            tenant.name, tenant.weight
        )));
    }
    if let Some(p99) = tenant.slo.max_p99 {
        if p99 == Duration::ZERO {
            return Err(ConduitError::invalid_config(format!(
                "tenant {}: max_p99 SLO target must be positive",
                tenant.name
            )));
        }
    }
    if let Some(occ) = tenant.slo.max_lane_occupancy {
        if !(occ.is_finite() && 0.0 < occ && occ <= 1.0) {
            return Err(ConduitError::invalid_config(format!(
                "tenant {}: max_lane_occupancy SLO target must be in (0, 1], got {occ}",
                tenant.name
            )));
        }
    }
    Ok(())
}

/// Flag bits of the per-tenant scheduling block.
const SLO_HAS_MAX_P99: u8 = 1 << 0;
const SLO_HAS_MAX_OCCUPANCY: u8 = 1 << 1;

/// Appends a tenant's scheduling block (weight + optional SLO targets).
pub(crate) fn put_scheduling(out: &mut Vec<u8>, tenant: &TenantSpec) {
    put_u32(out, tenant.weight);
    let mut flags = 0u8;
    if tenant.slo.max_p99.is_some() {
        flags |= SLO_HAS_MAX_P99;
    }
    if tenant.slo.max_lane_occupancy.is_some() {
        flags |= SLO_HAS_MAX_OCCUPANCY;
    }
    out.push(flags);
    if let Some(p99) = tenant.slo.max_p99 {
        put_u64(out, p99.as_ps());
    }
    if let Some(occ) = tenant.slo.max_lane_occupancy {
        put_u64(out, occ.to_bits());
    }
}

/// Reads a scheduling block written by [`put_scheduling`]. Range checks
/// mirror [`validate_tenant`] so a forged block cannot smuggle weights or
/// targets past the spec-level validation.
pub(crate) fn read_scheduling(r: &mut Reader<'_>) -> Result<(u32, SloTarget)> {
    let weight = r.u32()?;
    if weight == 0 || weight > MAX_WEIGHT {
        return Err(ConduitError::corrupt_checkpoint(format!(
            "tenant weight {weight} outside 1..={MAX_WEIGHT}"
        )));
    }
    let flags = r.u8()?;
    if flags & !(SLO_HAS_MAX_P99 | SLO_HAS_MAX_OCCUPANCY) != 0 {
        return Err(ConduitError::corrupt_checkpoint(format!(
            "unknown SLO flag bits {flags:#04x}"
        )));
    }
    let max_p99 = if flags & SLO_HAS_MAX_P99 != 0 {
        let ps = r.u64()?;
        if ps == 0 {
            return Err(ConduitError::corrupt_checkpoint(
                "max_p99 SLO target must be positive",
            ));
        }
        Some(Duration::from_ps(ps))
    } else {
        None
    };
    let max_lane_occupancy = if flags & SLO_HAS_MAX_OCCUPANCY != 0 {
        let occ = f64::from_bits(r.u64()?);
        if !(occ.is_finite() && 0.0 < occ && occ <= 1.0) {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "max_lane_occupancy SLO target {occ} outside (0, 1]"
            )));
        }
        Some(occ)
    } else {
        None
    };
    Ok((
        weight,
        SloTarget {
            max_p99,
            max_lane_occupancy,
        },
    ))
}

/// The stable trace code of a workload. Exhaustive: adding a workload
/// without assigning it a code fails to compile.
pub(crate) fn workload_code(w: Workload) -> u8 {
    match w {
        Workload::Aes => 0,
        Workload::XorFilter => 1,
        Workload::Heat3d => 2,
        Workload::Jacobi1d => 3,
        Workload::LlamaInference => 4,
        Workload::LlmTraining => 5,
    }
}

/// Decodes a workload code written by [`workload_code`].
pub(crate) fn workload_from_code(code: u8) -> Result<Workload> {
    Ok(match code {
        0 => Workload::Aes,
        1 => Workload::XorFilter,
        2 => Workload::Heat3d,
        3 => Workload::Jacobi1d,
        4 => Workload::LlamaInference,
        5 => Workload::LlmTraining,
        v => {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "unknown workload code {v}"
            )))
        }
    })
}

/// The stable trace code of a policy. Exhaustive: adding a policy without
/// assigning it a code fails to compile.
pub(crate) fn policy_code(p: Policy) -> u8 {
    match p {
        Policy::HostCpu => 0,
        Policy::HostGpu => 1,
        Policy::IspOnly => 2,
        Policy::PudSsd => 3,
        Policy::FlashCosmos => 4,
        Policy::AresFlash => 5,
        Policy::IfpIsp => 6,
        Policy::BwOffloading => 7,
        Policy::DmOffloading => 8,
        Policy::Conduit => 9,
        Policy::Ideal => 10,
    }
}

/// Decodes a policy code written by [`policy_code`].
pub(crate) fn policy_from_code(code: u8) -> Result<Policy> {
    Ok(match code {
        0 => Policy::HostCpu,
        1 => Policy::HostGpu,
        2 => Policy::IspOnly,
        3 => Policy::PudSsd,
        4 => Policy::FlashCosmos,
        5 => Policy::AresFlash,
        6 => Policy::IfpIsp,
        7 => Policy::BwOffloading,
        8 => Policy::DmOffloading,
        9 => Policy::Conduit,
        10 => Policy::Ideal,
        v => {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "unknown policy code {v}"
            )))
        }
    })
}

/// Appends a length-prefixed string (the trace format's name encoding).
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_NAME_LEN);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// Reads a length-prefixed string, rejecting empty, oversized or non-UTF-8
/// names.
pub(crate) fn read_str(r: &mut Reader<'_>) -> Result<String> {
    let len = r.u16()? as usize;
    if len == 0 || len > MAX_NAME_LEN {
        return Err(ConduitError::corrupt_checkpoint(format!(
            "name length {len} outside 1..={MAX_NAME_LEN}"
        )));
    }
    let bytes = r.take(len)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| ConduitError::corrupt_checkpoint("name is not valid UTF-8"))
}

/// The spec tags of the arrival-process encoding.
const SPEC_DETERMINISTIC: u8 = 0;
const SPEC_POISSON: u8 = 1;
const SPEC_MARKOV_ON_OFF: u8 = 2;

/// Appends an arrival spec (tag byte + fixed-width parameters).
pub(crate) fn put_spec(out: &mut Vec<u8>, spec: &ArrivalSpec) {
    match *spec {
        ArrivalSpec::Deterministic {
            interarrival,
            phase,
        } => {
            out.push(SPEC_DETERMINISTIC);
            put_u64(out, interarrival.as_ps());
            put_u64(out, phase.as_ps());
        }
        ArrivalSpec::Poisson {
            mean_interarrival,
            seed,
        } => {
            out.push(SPEC_POISSON);
            put_u64(out, mean_interarrival.as_ps());
            put_u64(out, seed);
        }
        ArrivalSpec::MarkovOnOff {
            burst_interarrival,
            mean_on,
            mean_off,
            seed,
        } => {
            out.push(SPEC_MARKOV_ON_OFF);
            put_u64(out, burst_interarrival.as_ps());
            put_u64(out, mean_on.as_ps());
            put_u64(out, mean_off.as_ps());
            put_u64(out, seed);
        }
    }
}

/// Reads an arrival spec written by [`put_spec`], rejecting unknown tags
/// and zero-gap parameters.
pub(crate) fn read_spec(r: &mut Reader<'_>) -> Result<ArrivalSpec> {
    let spec = match r.u8()? {
        SPEC_DETERMINISTIC => ArrivalSpec::Deterministic {
            interarrival: Duration::from_ps(r.u64()?),
            phase: Duration::from_ps(r.u64()?),
        },
        SPEC_POISSON => ArrivalSpec::Poisson {
            mean_interarrival: Duration::from_ps(r.u64()?),
            seed: r.u64()?,
        },
        SPEC_MARKOV_ON_OFF => ArrivalSpec::MarkovOnOff {
            burst_interarrival: Duration::from_ps(r.u64()?),
            mean_on: Duration::from_ps(r.u64()?),
            mean_off: Duration::from_ps(r.u64()?),
            seed: r.u64()?,
        },
        v => {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "unknown arrival-spec tag {v}"
            )))
        }
    };
    if !spec.is_valid() {
        return Err(ConduitError::corrupt_checkpoint(
            "arrival spec has a zero gap",
        ));
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tenant(name: &str, device: &str) -> TenantSpec {
        TenantSpec::new(
            name,
            device,
            Workload::XorFilter,
            Policy::Conduit,
            ArrivalSpec::Deterministic {
                interarrival: Duration::from_us(2.0),
                phase: Duration::ZERO,
            },
        )
    }

    #[test]
    fn generate_interleaves_and_sorts_tenants() {
        let mix = TrafficMix::new(Scale::test())
            .tenant(TenantSpec {
                arrivals: ArrivalSpec::Deterministic {
                    interarrival: Duration::from_us(2.0),
                    phase: Duration::from_us(1.0),
                },
                ..tenant("a", "dev-a")
            })
            .tenant(tenant("b", "dev-b"));
        let trace = mix.generate(Duration::from_us(6.0)).unwrap();
        // b: 0, 2, 4 us; a: 1, 3, 5 us — sorted by arrival.
        let got: Vec<(u16, f64)> = trace
            .records
            .iter()
            .map(|r| (r.tenant, r.arrival.as_us()))
            .collect();
        assert_eq!(
            got,
            vec![(1, 0.0), (0, 1.0), (1, 2.0), (0, 3.0), (1, 4.0), (0, 5.0)]
        );
    }

    #[test]
    fn ties_resolve_by_tenant_index() {
        let mix = TrafficMix::new(Scale::test())
            .tenant(tenant("a", "shared"))
            .tenant(tenant("b", "shared"));
        let trace = mix.generate(Duration::from_us(4.1)).unwrap();
        let got: Vec<u16> = trace.records.iter().map(|r| r.tenant).collect();
        assert_eq!(got, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let mix = TrafficMix::new(Scale::test()).tenant(TenantSpec {
            arrivals: ArrivalSpec::Poisson {
                mean_interarrival: Duration::from_ps(1),
                seed: 3,
            },
            ..tenant("flood", "dev")
        });
        // A picosecond-gap stream over an enormous horizon is clamped by the
        // per-tenant backstop rather than looping forever.
        let trace = mix.generate(Duration::from_secs(1.0)).unwrap();
        assert_eq!(trace.records.len(), MAX_GENERATED_PER_TENANT);
        assert_eq!(
            trace,
            mix.generate(Duration::from_secs(1.0)).unwrap(),
            "generation must be deterministic"
        );
    }

    #[test]
    fn invalid_tenants_are_rejected() {
        let empty_name = TenantSpec {
            name: String::new(),
            ..tenant("x", "dev")
        };
        let zero_gap = TenantSpec {
            arrivals: ArrivalSpec::Poisson {
                mean_interarrival: Duration::ZERO,
                seed: 0,
            },
            ..tenant("x", "dev")
        };
        let zero_weight = tenant("x", "dev").weighted(0);
        let huge_weight = tenant("x", "dev").weighted(MAX_WEIGHT + 1);
        let zero_p99 = tenant("x", "dev").with_slo(SloTarget {
            max_p99: Some(Duration::ZERO),
            max_lane_occupancy: None,
        });
        let bad_occupancy = tenant("x", "dev").with_slo(SloTarget {
            max_p99: None,
            max_lane_occupancy: Some(1.5),
        });
        for bad in [
            empty_name,
            zero_gap,
            zero_weight,
            huge_weight,
            zero_p99,
            bad_occupancy,
        ] {
            let mix = TrafficMix::new(Scale::test()).tenant(bad);
            assert!(mix.generate(Duration::from_us(1.0)).is_err());
        }
    }

    #[test]
    fn tenant_count_is_capped_at_what_a_trace_can_carry() {
        let mix = |count: usize| {
            (0..count).fold(TrafficMix::new(Scale::test()), |mix, i| {
                mix.tenant(tenant(&format!("t{i}"), "dev"))
            })
        };
        let horizon = Duration::from_us(3.0);
        assert!(matches!(
            mix(MAX_TENANTS + 1).generate(horizon),
            Err(ConduitError::InvalidConfig { .. })
        ));
        let trace = mix(MAX_TENANTS).generate(horizon).unwrap();
        assert_eq!(trace.records.len(), 2 * MAX_TENANTS);
        assert_eq!(Trace::from_bytes(&trace.to_bytes()).unwrap(), trace);
    }

    #[test]
    fn codes_roundtrip_exhaustively() {
        for w in Workload::ALL {
            assert_eq!(workload_from_code(workload_code(w)).unwrap(), w);
        }
        for p in Policy::ALL {
            assert_eq!(policy_from_code(policy_code(p)).unwrap(), p);
        }
        assert!(workload_from_code(200).is_err());
        assert!(policy_from_code(200).is_err());
    }
}
