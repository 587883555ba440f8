//! The batch planner: strip-mining a [`VectorProgram`] into runs of
//! homogeneous instructions.
//!
//! A **strip** is a maximal run of consecutive instructions that share the
//! same `(op, elem_bits, lanes)` shape — and therefore the same
//! [`conduit_sim::StripEstimates`] (per-resource compute estimates and
//! per-location static-move latencies). The run loop in
//! [`crate::RuntimeEngine`] reserves the offloader core once per strip, and
//! reads the estimates from the cost row it resolves once per shape.
//!
//! For policies whose placement is a pure function of the operation
//! (host-side policies and the single-resource NDP baselines), the planner
//! also resolves the [`ExecutionSite`] statically ([`Policy::static_site`]),
//! so the run loop skips site selection entirely. Policies that consult
//! runtime state — operand residency, queueing delays, utilization — keep
//! `site: None` and place each instruction inside the strip (which is also
//! how a warm device's coherence state can flip placements mid-strip
//! without invalidating the plan: the plan never pins a dynamic decision).
//!
//! Planning is O(n) and allocation-light, so inline programs can plan on
//! the fly; registered programs cache their plan per (program, policy,
//! cost-function) in the session (see `Session`), keyed by the
//! content-addressed registry id — the registry is append-only, so cached
//! plans never need invalidation.

use conduit_types::{ExecutionSite, VectorProgram};

use crate::cost::CostFunction;
use crate::engine::RunOptions;
use crate::policy::Policy;

/// One run of consecutive instructions with a homogeneous
/// `(op, elem_bits, lanes)` shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strip {
    /// Index of the strip's first instruction in the program.
    pub start: usize,
    /// Number of instructions in the strip (≥ 1).
    pub len: usize,
    /// The statically resolved execution site, when the policy's placement
    /// depends only on the operation. `None` = the policy decides per
    /// instruction at run time.
    pub site: Option<ExecutionSite>,
}

/// The strip decomposition of one program under one (policy, cost-function)
/// pair.
#[derive(Debug, Clone, PartialEq)]
pub struct StripPlan {
    policy: Policy,
    cost_function: CostFunction,
    strips: Vec<Strip>,
}

impl StripPlan {
    /// Strip-mines `program` for `policy`. The cost function is recorded so
    /// the plan can be cache-keyed and validity-checked against the run's
    /// options; ablation switches do not change the strip boundaries.
    pub fn plan(program: &VectorProgram, policy: Policy, cost_function: CostFunction) -> Self {
        let mut strips = Vec::new();
        Self::plan_into(program, policy, &mut strips);
        StripPlan {
            policy,
            cost_function,
            strips,
        }
    }

    /// The planner core: strip-mines `program` into `strips` (cleared
    /// first). Used directly by the engine to plan inline programs into its
    /// reusable scratch without allocating a [`StripPlan`].
    pub(crate) fn plan_into(program: &VectorProgram, policy: Policy, strips: &mut Vec<Strip>) {
        strips.clear();
        let insts = program.insts();
        let mut i = 0;
        while i < insts.len() {
            let key = (insts[i].op, insts[i].elem_bits, insts[i].lanes);
            let mut end = i + 1;
            while end < insts.len()
                && (insts[end].op, insts[end].elem_bits, insts[end].lanes) == key
            {
                end += 1;
            }
            strips.push(Strip {
                start: i,
                len: end - i,
                site: policy.static_site(key.0),
            });
            i = end;
        }
    }

    /// Whether this plan was computed for exactly the given run options.
    pub fn matches(&self, options: &RunOptions) -> bool {
        self.policy == options.policy && self.cost_function == options.cost_function
    }

    /// The policy this plan was computed for.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The strips, in program order.
    pub fn strips(&self) -> &[Strip] {
        &self.strips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::{OpType, Operand, VectorInst};

    fn program() -> VectorProgram {
        let mut prog = VectorProgram::new("strips");
        // Three XORs, then one Add, then two XORs: three strips.
        for k in 0..3 {
            prog.push(VectorInst::binary(
                k,
                OpType::Xor,
                Operand::page(k as u64 * 8),
                Operand::page(k as u64 * 8 + 4),
            ));
        }
        prog.push(VectorInst::binary(
            3,
            OpType::Add,
            Operand::page(32),
            Operand::page(36),
        ));
        for k in 4..6 {
            prog.push(VectorInst::binary(
                k,
                OpType::Xor,
                Operand::page(k as u64 * 8 + 8),
                Operand::page(k as u64 * 8 + 12),
            ));
        }
        prog
    }

    #[test]
    fn strips_cover_the_program_in_order() {
        let prog = program();
        let plan = StripPlan::plan(&prog, Policy::Conduit, CostFunction::conduit());
        let strips = plan.strips();
        assert_eq!(strips.len(), 3);
        assert_eq!((strips[0].start, strips[0].len), (0, 3));
        assert_eq!((strips[1].start, strips[1].len), (3, 1));
        assert_eq!((strips[2].start, strips[2].len), (4, 2));
        let covered: usize = strips.iter().map(|s| s.len).sum();
        assert_eq!(covered, prog.len());
    }

    #[test]
    fn shape_changes_break_strips() {
        let mut prog = VectorProgram::new("shapes");
        prog.push(VectorInst::binary(
            0,
            OpType::Add,
            Operand::page(0),
            Operand::page(4),
        ));
        let mut narrow = VectorInst::binary(1, OpType::Add, Operand::page(8), Operand::page(12));
        narrow.elem_bits = 8;
        prog.push(narrow);
        let plan = StripPlan::plan(&prog, Policy::IspOnly, CostFunction::conduit());
        assert_eq!(plan.strips().len(), 2);
    }

    #[test]
    fn static_sites_mirror_choose_site() {
        use crate::policy::PolicyContext;
        use conduit_sim::SsdDevice;
        use conduit_types::{DataLocation, Duration, SimTime, SsdConfig};

        let dev = SsdDevice::new(&SsdConfig::small_for_tests()).unwrap();
        let locs = [DataLocation::Flash, DataLocation::Flash];
        for op in OpType::ALL {
            let inst = VectorInst::with_srcs(0, op, Vec::new());
            let estimates = dev.estimate_strip(op, inst.elem_bits, inst.lanes, inst.vector_bytes());
            let ctx = PolicyContext {
                device: &dev,
                estimates: &estimates,
                now: SimTime::ZERO,
                operand_locations: &locs,
                dependence_delay: Duration::ZERO,
            };
            let mut prog = VectorProgram::new("one");
            prog.push(inst);
            for policy in Policy::ALL {
                let planned = StripPlan::plan(&prog, policy, CostFunction::conduit());
                if let Some(site) = planned.strips()[0].site {
                    assert_eq!(
                        site,
                        policy.choose_site(&CostFunction::conduit(), op, &ctx),
                        "{policy}/{op} planned site diverged from choose_site"
                    );
                }
            }
        }
    }

    #[test]
    fn plans_validate_against_run_options() {
        let prog = program();
        let plan = StripPlan::plan(&prog, Policy::Conduit, CostFunction::conduit());
        assert!(plan.matches(&RunOptions::new(Policy::Conduit)));
        assert!(!plan.matches(&RunOptions::new(Policy::IspOnly)));
        let ablated = RunOptions::new(Policy::Conduit).cost_function(CostFunction {
            include_data_movement: false,
            ..CostFunction::conduit()
        });
        assert!(!plan.matches(&ablated));
        assert_eq!(plan.policy(), Policy::Conduit);
    }
}
