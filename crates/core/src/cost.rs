//! The holistic cost function (Eqns. 1 and 2 of the paper).
//!
//! For every candidate SSD compute resource, Conduit estimates
//!
//! ```text
//! total_latency_resource = latency_comp + latency_dm + max(delay_dd, delay_queue)
//! ```
//!
//! and offloads the instruction to the resource with the smallest total
//! (restricted to resources that support the operation at all). The
//! individual terms come from six features: operation type, operand
//! location, data-dependence delay, resource queueing delay, (statically
//! estimated) data-movement latency, and expected computation latency.
//!
//! Every chooser reads its per-resource estimates from the
//! [`StripEstimates`] in the [`PolicyContext`] — the compute and static
//! data-movement latencies at the instruction's vector shape, which the run
//! loop looks up once per distinct shape in a run — and its
//! runtime features (operand locations, dependence and queueing delays) from
//! the rest of the context.
//!
//! The struct exposes ablation switches so the benchmark harness can measure
//! how much each term contributes (DESIGN.md lists these as ablation
//! candidates).

use conduit_sim::StripEstimates;
use conduit_types::{Duration, OpType, Resource};

use crate::policy::PolicyContext;

/// The per-resource feature vector the cost function evaluates (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostFeatures {
    /// The candidate resource.
    pub resource: Resource,
    /// Operation type of the instruction.
    pub op: OpType,
    /// Expected computation latency on this resource (`latency_comp`).
    pub comp_latency: Duration,
    /// Static data-movement latency to stage operands at this resource
    /// (`latency_dm`).
    pub dm_latency: Duration,
    /// Delay until the instruction's operands are produced (`delay_dd`).
    pub dependence_delay: Duration,
    /// Delay until the resource is free (`delay_queue`).
    pub queue_delay: Duration,
}

/// The cost function with its ablation switches.
///
/// `Hash` lets (program, policy, cost-function) triples key the session's
/// strip-plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostFunction {
    /// Include the data-movement term (`latency_dm`).
    pub include_data_movement: bool,
    /// Include the queueing-delay term.
    pub include_queue_delay: bool,
    /// Include the data-dependence term.
    pub include_dependence_delay: bool,
    /// Combine dependence and queueing delays with `max` (Eqn. 1). When
    /// `false` the two are summed instead (an ablation the paper argues
    /// against because the delays overlap).
    pub combine_with_max: bool,
}

impl Default for CostFunction {
    fn default() -> Self {
        CostFunction {
            include_data_movement: true,
            include_queue_delay: true,
            include_dependence_delay: true,
            combine_with_max: true,
        }
    }
}

impl CostFunction {
    /// The full cost function used by Conduit.
    pub fn conduit() -> Self {
        CostFunction::default()
    }

    /// Computes the feature vector for executing an `op` instruction on
    /// `resource`, or `None` if the resource does not support the operation.
    pub fn features_for(
        &self,
        resource: Resource,
        op: OpType,
        ctx: &PolicyContext<'_>,
    ) -> Option<CostFeatures> {
        let comp = ctx.estimates.compute_for(resource)?;
        let dm_latency: Duration = ctx
            .operand_locations
            .iter()
            .map(|&loc| ctx.estimates.move_from(resource, loc))
            .sum();
        Some(CostFeatures {
            resource,
            op,
            comp_latency: comp.latency,
            dm_latency,
            dependence_delay: ctx.dependence_delay,
            queue_delay: ctx.device.queue_delay(resource, ctx.now),
        })
    }

    /// Eqn. 1: the total offloading latency for one feature vector, honoring
    /// the ablation switches.
    pub fn total_latency(&self, f: &CostFeatures) -> Duration {
        let dm = if self.include_data_movement {
            f.dm_latency
        } else {
            Duration::ZERO
        };
        let dep = if self.include_dependence_delay {
            f.dependence_delay
        } else {
            Duration::ZERO
        };
        let queue = if self.include_queue_delay {
            f.queue_delay
        } else {
            Duration::ZERO
        };
        let stall = if self.combine_with_max {
            dep.max(queue)
        } else {
            dep + queue
        };
        f.comp_latency + dm + stall
    }

    /// Eqn. 2: evaluates every SSD compute resource and returns the one with
    /// the lowest total latency (with its latency), or `None` if no resource
    /// supports the operation (which cannot happen because ISP supports
    /// everything, but the type signature stays honest).
    pub fn choose(&self, op: OpType, ctx: &PolicyContext<'_>) -> Option<(Resource, Duration)> {
        Resource::ALL
            .iter()
            .filter_map(|&r| {
                self.features_for(r, op, ctx)
                    .map(|f| (r, self.total_latency(&f)))
            })
            .min_by_key(|(_, lat)| *lat)
    }

    /// The selection rule of the Ideal policy (no contention, free data
    /// movement): the resource with the lowest expected computation latency.
    pub fn choose_ideal(&self, estimates: &StripEstimates) -> Option<(Resource, Duration)> {
        Resource::ALL
            .iter()
            .filter_map(|&r| estimates.compute_for(r).map(|e| (r, e.latency)))
            .min_by_key(|(_, lat)| *lat)
    }

    /// The data-movement-minimizing selection rule of DM-Offloading.
    pub fn choose_min_data_movement(
        &self,
        op: OpType,
        ctx: &PolicyContext<'_>,
    ) -> Option<(Resource, Duration)> {
        Resource::ALL
            .iter()
            .filter_map(|&r| {
                self.features_for(r, op, ctx)
                    .map(|f| (r, f.dm_latency, f.comp_latency))
            })
            // Ties on data movement (e.g. everything already resident in
            // DRAM) are broken by the faster compute latency.
            .min_by_key(|(_, dm, comp)| (*dm, *comp))
            .map(|(r, dm, _)| (r, dm))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_sim::SsdDevice;
    use conduit_types::{DataLocation, SimTime, SsdConfig, VectorInst};

    fn device() -> SsdDevice {
        SsdDevice::new(&SsdConfig::small_for_tests()).unwrap()
    }

    /// The estimates the run loop would look up for a canonical `op`
    /// instruction.
    fn estimates(device: &SsdDevice, op: OpType) -> StripEstimates {
        let inst = VectorInst::with_srcs(0, op, Vec::new());
        device.estimate_strip(op, inst.elem_bits, inst.lanes, inst.vector_bytes())
    }

    fn ctx<'a>(
        device: &'a SsdDevice,
        estimates: &'a StripEstimates,
        locs: &'a [DataLocation],
    ) -> PolicyContext<'a> {
        PolicyContext {
            device,
            estimates,
            now: SimTime::ZERO,
            operand_locations: locs,
            dependence_delay: Duration::ZERO,
        }
    }

    #[test]
    fn unsupported_resources_are_skipped() {
        let dev = device();
        let est = estimates(&dev, OpType::Div);
        let locs = [DataLocation::Flash, DataLocation::Flash];
        let c = ctx(&dev, &est, &locs);
        let cf = CostFunction::conduit();
        assert!(cf.features_for(Resource::Ifp, OpType::Div, &c).is_none());
        assert!(cf.features_for(Resource::PudSsd, OpType::Div, &c).is_none());
        // Division can only go to the controller cores.
        let (r, _) = cf.choose(OpType::Div, &c).unwrap();
        assert_eq!(r, Resource::Isp);
    }

    #[test]
    fn flash_resident_bitwise_prefers_ifp() {
        let dev = device();
        let est = estimates(&dev, OpType::Xor);
        let locs = [DataLocation::Flash, DataLocation::Flash];
        let c = ctx(&dev, &est, &locs);
        let (r, _) = CostFunction::conduit().choose(OpType::Xor, &c).unwrap();
        assert_eq!(r, Resource::Ifp);
    }

    #[test]
    fn dram_resident_multiplication_avoids_ifp() {
        let dev = device();
        let est = estimates(&dev, OpType::Mul);
        let locs = [DataLocation::Dram, DataLocation::Dram];
        let c = ctx(&dev, &est, &locs);
        let (r, _) = CostFunction::conduit().choose(OpType::Mul, &c).unwrap();
        assert_ne!(r, Resource::Ifp);
    }

    #[test]
    fn queue_backlog_steers_away_from_a_busy_resource() {
        let mut dev = device();
        // Saturate the flash dies with long operations.
        for _ in 0..64 {
            dev.execute_ifp(OpType::Mul, 32, 4096, &[], SimTime::ZERO)
                .unwrap();
        }
        let est = estimates(&dev, OpType::Xor);
        let locs = [DataLocation::Flash, DataLocation::Flash];
        let c = ctx(&dev, &est, &locs);
        let (r, _) = CostFunction::conduit().choose(OpType::Xor, &c).unwrap();
        assert_ne!(
            r,
            Resource::Ifp,
            "busy flash should push the choice elsewhere"
        );
    }

    #[test]
    fn ablation_switches_change_the_total() {
        let dev = device();
        let est = estimates(&dev, OpType::Xor);
        let locs = [DataLocation::Flash, DataLocation::Flash];
        let c = ctx(&dev, &est, &locs);
        let full = CostFunction::conduit();
        let f = full
            .features_for(Resource::PudSsd, OpType::Xor, &c)
            .unwrap();
        let without_dm = CostFunction {
            include_data_movement: false,
            ..full
        };
        assert!(without_dm.total_latency(&f) < full.total_latency(&f));

        let mut f2 = f;
        f2.dependence_delay = Duration::from_us(5.0);
        f2.queue_delay = Duration::from_us(3.0);
        let sum_combine = CostFunction {
            combine_with_max: false,
            ..full
        };
        assert_eq!(
            sum_combine.total_latency(&f2) - full.total_latency(&f2),
            Duration::from_us(3.0)
        );
    }

    #[test]
    fn ideal_choice_ignores_data_location() {
        let dev = device();
        let est = estimates(&dev, OpType::Xor);
        let locs = [DataLocation::Flash, DataLocation::Flash];
        let c = ctx(&dev, &est, &locs);
        let cf = CostFunction::conduit();
        // For a bitwise op the fastest raw compute is DRAM (no sensing), so
        // Ideal picks PuD even though the data is in flash.
        let (ideal, _) = cf.choose_ideal(&est).unwrap();
        assert_eq!(ideal, Resource::PudSsd);
        // DM-offloading picks flash because the operands already live there.
        let (dm, _) = cf.choose_min_data_movement(OpType::Xor, &c).unwrap();
        assert_eq!(dm, Resource::Ifp);
    }
}
