//! Offloading policies: Conduit and every baseline the paper evaluates.

use conduit_sim::{SsdDevice, StripEstimates};
use conduit_types::{DataLocation, Duration, ExecutionSite, OpType, Resource, SimTime};

use crate::cost::CostFunction;

/// Runtime information available to a policy when it places one instruction.
#[derive(Debug, Clone, Copy)]
pub struct PolicyContext<'a> {
    /// The simulated device (read-only: queue delays, utilizations).
    pub device: &'a SsdDevice,
    /// Per-resource compute and static data-movement estimates at the
    /// instruction's vector shape ([`SsdDevice::estimate_strip`]).
    pub estimates: &'a StripEstimates,
    /// Current dispatch time.
    pub now: SimTime,
    /// Where each source operand currently lives.
    pub operand_locations: &'a [DataLocation],
    /// Delay until the instruction's producers finish (`delay_dd`).
    pub dependence_delay: Duration,
}

/// An offloading policy.
///
/// The variants cover the paper's evaluation matrix: outside-storage
/// processing on the host CPU or GPU, the four single-resource NDP baselines
/// (ISP, PuD-SSD, Flash-Cosmos, Ares-Flash), the naive IFP+ISP combination
/// from the §3.1 case study, the two prior offloading models (BW- and
/// DM-Offloading), Conduit itself, and the unrealizable Ideal upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Policy {
    /// Outside-storage processing on the host CPU.
    HostCpu,
    /// Outside-storage processing on the host GPU.
    HostGpu,
    /// All computation on the SSD controller cores.
    IspOnly,
    /// Processing-using-DRAM for every supported operation, controller cores
    /// otherwise (the MIMDRAM-based PuD-SSD baseline).
    PudSsd,
    /// Flash-Cosmos: in-flash bulk bitwise operations, controller cores for
    /// everything else.
    FlashCosmos,
    /// Ares-Flash: in-flash bitwise *and* arithmetic operations, controller
    /// cores for everything else.
    AresFlash,
    /// The naive IFP+ISP split of the motivation case study: bitwise work in
    /// flash, every other operation on the controller cores.
    IfpIsp,
    /// Bandwidth-based offloading: pick the least-utilized resource.
    BwOffloading,
    /// Data-movement-based offloading: pick the resource whose operands are
    /// closest.
    DmOffloading,
    /// Conduit's holistic cost function (Eqns. 1–2).
    Conduit,
    /// The unrealizable Ideal policy: no contention, free data movement,
    /// always the fastest compute resource.
    Ideal,
}

impl Policy {
    /// All policies, in the order the paper's figures list them.
    pub const ALL: [Policy; 11] = [
        Policy::HostCpu,
        Policy::HostGpu,
        Policy::IspOnly,
        Policy::PudSsd,
        Policy::FlashCosmos,
        Policy::AresFlash,
        Policy::IfpIsp,
        Policy::BwOffloading,
        Policy::DmOffloading,
        Policy::Conduit,
        Policy::Ideal,
    ];

    /// Short display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Policy::HostCpu => "CPU",
            Policy::HostGpu => "GPU",
            Policy::IspOnly => "ISP",
            Policy::PudSsd => "PuD-SSD",
            Policy::FlashCosmos => "Flash-Cosmos",
            Policy::AresFlash => "Ares-Flash",
            Policy::IfpIsp => "IFP+ISP",
            Policy::BwOffloading => "BW-Offloading",
            Policy::DmOffloading => "DM-Offloading",
            Policy::Conduit => "Conduit",
            Policy::Ideal => "Ideal",
        }
    }

    /// Whether this policy executes on the host side (outside-storage
    /// processing).
    pub fn is_host(self) -> bool {
        matches!(self, Policy::HostCpu | Policy::HostGpu)
    }

    /// Whether the runtime engine should charge Conduit's offloader
    /// overheads (feature collection + instruction transformation) for this
    /// policy. Host baselines do their placement at compile time; the Ideal
    /// policy is defined without overheads.
    pub fn pays_offloader_overhead(self) -> bool {
        !self.is_host() && self != Policy::Ideal
    }

    /// Whether the engine should model contention and data movement for this
    /// policy (the Ideal policy assumes both away).
    pub fn is_contention_free(self) -> bool {
        self == Policy::Ideal
    }

    /// The execution site of policies whose placement is a pure function of
    /// the operation (host-side policies and the single-resource NDP
    /// baselines); `None` for the policies that consult runtime state. The
    /// batch planner resolves these once per strip.
    pub fn static_site(self, op: OpType) -> Option<ExecutionSite> {
        let resource = match self {
            Policy::HostCpu => return Some(ExecutionSite::HostCpu),
            Policy::HostGpu => return Some(ExecutionSite::HostGpu),
            Policy::IspOnly => Resource::Isp,
            Policy::PudSsd if Resource::PudSsd.supports(op) => Resource::PudSsd,
            Policy::FlashCosmos | Policy::IfpIsp if op.is_bitwise() => Resource::Ifp,
            Policy::AresFlash if Resource::Ifp.supports(op) => Resource::Ifp,
            Policy::PudSsd | Policy::FlashCosmos | Policy::IfpIsp | Policy::AresFlash => {
                Resource::Isp
            }
            Policy::BwOffloading | Policy::DmOffloading | Policy::Conduit | Policy::Ideal => {
                return None
            }
        };
        Some(ExecutionSite::Ssd(resource))
    }

    /// Chooses the execution site for one `op` instruction. `cost` is the
    /// cost function Conduit places with (the other rules ignore its
    /// ablation switches).
    pub fn choose_site(
        self,
        cost: &CostFunction,
        op: OpType,
        ctx: &PolicyContext<'_>,
    ) -> ExecutionSite {
        if let Some(site) = self.static_site(op) {
            return site;
        }
        let choice = match self {
            // Each candidate's utilization is evaluated once; ties keep the
            // earlier resource in `Resource::ALL` order.
            Policy::BwOffloading => Resource::ALL
                .iter()
                .filter(|r| r.supports(op))
                .map(|&r| (r, ctx.device.utilization(r, ctx.now)))
                .min_by(|(_, ua), (_, ub)| ua.partial_cmp(ub).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(r, _)| r),
            Policy::DmOffloading => cost.choose_min_data_movement(op, ctx).map(|(r, _)| r),
            Policy::Ideal => cost.choose_ideal(ctx.estimates).map(|(r, _)| r),
            // Conduit; every static policy returned above.
            _ => cost.choose(op, ctx).map(|(r, _)| r),
        };
        ExecutionSite::Ssd(choice.unwrap_or(Resource::Isp))
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::{SsdConfig, VectorInst};

    fn device() -> SsdDevice {
        SsdDevice::new(&SsdConfig::small_for_tests()).unwrap()
    }

    /// Places a canonical-shape `op` instruction whose operands live at
    /// `locs`.
    fn choose(policy: Policy, op: OpType, dev: &SsdDevice, locs: &[DataLocation]) -> ExecutionSite {
        let inst = VectorInst::with_srcs(0, op, Vec::new());
        let estimates = dev.estimate_strip(op, inst.elem_bits, inst.lanes, inst.vector_bytes());
        let ctx = PolicyContext {
            device: dev,
            estimates: &estimates,
            now: SimTime::ZERO,
            operand_locations: locs,
            dependence_delay: Duration::ZERO,
        };
        policy.choose_site(&CostFunction::conduit(), op, &ctx)
    }

    const IN_FLASH: [DataLocation; 2] = [DataLocation::Flash, DataLocation::Flash];

    #[test]
    fn host_policies_always_stay_on_the_host() {
        let dev = device();
        assert_eq!(
            choose(Policy::HostCpu, OpType::Add, &dev, &IN_FLASH),
            ExecutionSite::HostCpu
        );
        assert_eq!(
            choose(Policy::HostGpu, OpType::Mul, &dev, &IN_FLASH),
            ExecutionSite::HostGpu
        );
    }

    #[test]
    fn single_resource_policies_fall_back_to_isp() {
        let dev = device();
        // Division is unsupported everywhere except the controller cores.
        for p in [Policy::PudSsd, Policy::FlashCosmos, Policy::AresFlash] {
            assert_eq!(
                choose(p, OpType::Div, &dev, &IN_FLASH),
                ExecutionSite::Ssd(Resource::Isp),
                "{p} must fall back to ISP"
            );
        }
        assert_eq!(
            choose(Policy::FlashCosmos, OpType::And, &dev, &IN_FLASH),
            ExecutionSite::Ssd(Resource::Ifp)
        );
        // Flash-Cosmos cannot run arithmetic in flash, Ares-Flash can.
        assert_eq!(
            choose(Policy::FlashCosmos, OpType::Add, &dev, &IN_FLASH),
            ExecutionSite::Ssd(Resource::Isp)
        );
        assert_eq!(
            choose(Policy::AresFlash, OpType::Add, &dev, &IN_FLASH),
            ExecutionSite::Ssd(Resource::Ifp)
        );
    }

    #[test]
    fn dm_offloading_prefers_where_data_lives() {
        let dev = device();
        let in_dram = [DataLocation::Dram, DataLocation::Dram];
        assert_eq!(
            choose(Policy::DmOffloading, OpType::And, &dev, &IN_FLASH),
            ExecutionSite::Ssd(Resource::Ifp)
        );
        assert_eq!(
            choose(Policy::DmOffloading, OpType::And, &dev, &in_dram),
            ExecutionSite::Ssd(Resource::PudSsd)
        );
    }

    #[test]
    fn bw_offloading_avoids_the_busiest_resource() {
        let mut dev = device();
        // Make the flash dies very busy.
        for _ in 0..32 {
            dev.execute_ifp(OpType::Mul, 32, 4096, &[], SimTime::ZERO)
                .unwrap();
        }
        let site = choose(Policy::BwOffloading, OpType::And, &dev, &IN_FLASH);
        assert_ne!(site, ExecutionSite::Ssd(Resource::Ifp));
    }

    #[test]
    fn conduit_and_ideal_pick_supported_resources() {
        let dev = device();
        for op in OpType::ALL {
            for p in [Policy::Conduit, Policy::Ideal] {
                let site = choose(p, op, &dev, &vec![DataLocation::Flash; op.arity()]);
                if let ExecutionSite::Ssd(r) = site {
                    assert!(r.supports(op), "{p} chose {r} for unsupported {op}");
                } else {
                    panic!("{p} must stay inside the SSD");
                }
            }
        }
    }

    #[test]
    fn policy_metadata_helpers() {
        assert!(Policy::HostCpu.is_host());
        assert!(!Policy::Conduit.is_host());
        assert!(Policy::Conduit.pays_offloader_overhead());
        assert!(!Policy::Ideal.pays_offloader_overhead());
        assert!(!Policy::HostGpu.pays_offloader_overhead());
        assert!(Policy::Ideal.is_contention_free());
        assert_eq!(Policy::ALL.len(), 11);
        assert_eq!(Policy::Conduit.to_string(), "Conduit");
    }
}
