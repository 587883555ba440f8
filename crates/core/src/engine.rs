//! The runtime offloading engine.
//!
//! Executes a [`VectorProgram`] on a simulated [`SsdDevice`] under an
//! offloading [`Policy`], reproducing the runtime stage of the paper
//! (§4.3.2): per instruction it collects the cost-function features, lets
//! the policy pick an execution site, charges the offloader overheads,
//! stages the operands at that site (respecting the lazy coherence
//! protocol), executes the computation on the contended resource timelines,
//! and records the result's new location.
//!
//! Costs that depend only on an instruction's shape `(op, elem_bits, lanes)`
//! — the per-resource compute and static-move estimates, the host CPU or
//! GPU compute cost, Ideal's pick — are resolved once per distinct shape
//! per run, into a cost row the run loop reads for every strip of that
//! shape. Programs have a handful of shapes but alternate them, so strips
//! are short. Everything else (placement on runtime state, staging, PuD and
//! IFP execution on the contended timelines) stays per instruction.
//!
//! The engine itself is **stateless across runs**: it owns only the models
//! derived from the configuration (offloader overheads, the host CPU/GPU
//! rooflines) and *borrows* the device it executes on. Callers decide the
//! device's lifetime — a fresh [`SsdDevice`] per run reproduces
//! independent, bit-identical experiments, while threading one device (its
//! [`conduit_sim::DeviceState`]) through a stream of runs models a warm,
//! aging SSD.

use std::sync::Mutex;

use conduit_sim::{
    CostBreakdown, HostCpuModel, HostGpuModel, OpCompletion, SsdDevice, StripEstimates,
};
use conduit_types::{
    ConduitError, DataLocation, Duration, Energy, ExecutionSite, HostConfig, LogicalPageId,
    Operand, Resource, Result, SimTime, SsdConfig, VectorInst, VectorProgram, PAGE_BYTES,
};

use crate::batch::{Strip, StripPlan};
use crate::cost::CostFunction;
use crate::overhead::OverheadModel;
use crate::policy::{Policy, PolicyContext};
use crate::report::{EnergySummary, OffloadMix, OverheadReport, RunReport, TimelineEntry};

/// Options controlling one run of the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// The offloading policy to use.
    pub policy: Policy,
    /// The cost function (with ablation switches) used by the Conduit
    /// policy.
    pub cost_function: CostFunction,
    /// Whether to record the full instruction → resource timeline
    /// (Figure 10). Disable for very large programs to save memory.
    pub record_timeline: bool,
    /// The simulation time at which the run starts issuing instructions.
    /// Fresh runs start at [`SimTime::ZERO`]; a warm device's stream clock
    /// issues each request at its predecessor's finish time, so the
    /// reported `total_time` covers only this run's own service (any
    /// residual contention — e.g. a garbage-collection tail still occupying
    /// a die — shows up as queueing on the resource timelines, not as a
    /// flat offset).
    pub start: SimTime,
}

impl RunOptions {
    /// Default options for a policy.
    pub fn new(policy: Policy) -> Self {
        RunOptions {
            policy,
            cost_function: CostFunction::conduit(),
            record_timeline: true,
            start: SimTime::ZERO,
        }
    }

    /// Builder-style: issues the run's first instruction at `start` on the
    /// device's timeline instead of time zero (the warm-device stream
    /// clock).
    pub fn starting_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Builder-style: replaces the cost function (for ablations).
    pub fn cost_function(mut self, cf: CostFunction) -> Self {
        self.cost_function = cf;
        self
    }

    /// Builder-style: disables timeline recording.
    pub fn without_timeline(mut self) -> Self {
        self.record_timeline = false;
        self
    }
}

/// Struct-of-arrays per-run bookkeeping, owned by the engine and reused
/// across runs so the run loop performs no heap allocation.
/// Columns are keyed by instruction index; the timeline
/// `Vec<TimelineEntry>` is materialized from the columns only when
/// [`RunOptions::record_timeline`] is set.
#[derive(Debug, Default)]
struct RunScratch {
    /// Where each instruction's result currently lives.
    result_site: Vec<DataLocation>,
    /// When each instruction's result becomes available.
    result_ready: Vec<SimTime>,
    /// The execution site each instruction was placed on.
    placed: Vec<ExecutionSite>,
    /// Dispatch (issue) time per instruction.
    issued: Vec<SimTime>,
    /// Completion time per instruction.
    finished: Vec<SimTime>,
    /// Per-instruction operand staging scratch.
    operand_locations: Vec<DataLocation>,
    operand_first_pages: Vec<LogicalPageId>,
    /// Inline strip-plan buffer (used when no cached plan applies).
    strips: Vec<Strip>,
    /// The run's cost rows, one per distinct instruction shape.
    rows: Vec<CostRow>,
}

/// The costs of one instruction shape that depend only on the shape, the
/// configuration and the run's options, resolved the first time a strip of
/// that shape comes up in a run.
#[derive(Debug, Clone, Copy)]
struct CostRow {
    /// The shape, its per-resource compute and static-move estimates and
    /// its PuD cost ([`SsdDevice::estimate_strip`]).
    estimates: StripEstimates,
    /// Host policies, the only ones that place on the host: the host CPU's
    /// or GPU's compute time and energy.
    host: (Duration, Energy),
    /// Ideal: the fastest resource and its compute time and energy.
    ideal: (Resource, Duration, Energy),
}

impl CostRow {
    fn is_for(&self, inst: &VectorInst) -> bool {
        let e = &self.estimates;
        (e.op, e.elem_bits, e.lanes) == (inst.op, inst.elem_bits, inst.lanes)
    }
}

impl RunScratch {
    fn reset(&mut self, n: usize, start: SimTime) {
        self.result_site.clear();
        self.result_site.resize(n, DataLocation::Flash);
        self.result_ready.clear();
        self.result_ready.resize(n, start);
        self.placed.clear();
        self.placed.resize(n, ExecutionSite::HostCpu);
        self.issued.clear();
        self.issued.resize(n, start);
        self.finished.clear();
        self.finished.resize(n, start);
        self.operand_locations.clear();
        self.operand_first_pages.clear();
        self.rows.clear();
    }
}

/// The runtime offloading engine: the host models and the offloader's own
/// bookkeeping. Stateless across runs — the device is borrowed per call
/// ([`RuntimeEngine::prepare`], [`RuntimeEngine::run`]); the only mutable
/// state is a pool of reusable run-scratch arenas, which never affects
/// results.
#[derive(Debug)]
pub struct RuntimeEngine {
    overhead: OverheadModel,
    host_cpu: HostCpuModel,
    host_gpu: HostGpuModel,
    l2p_miss_period: u64,
    /// Reusable run arenas: popped at run start, pushed back at run end.
    /// A pool (not a single slot) so concurrent runs on one engine never
    /// serialize on the scratch.
    scratch: Mutex<Vec<RunScratch>>,
}

impl RuntimeEngine {
    /// Builds an engine with the default host configuration.
    pub fn new(cfg: &SsdConfig) -> Self {
        Self::with_host(cfg, &HostConfig::default())
    }

    /// Builds an engine with an explicit host configuration.
    pub fn with_host(cfg: &SsdConfig, host: &HostConfig) -> Self {
        let miss_rate = (1.0 - cfg.l2p_cache_hit_rate).max(0.0);
        let l2p_miss_period = if miss_rate <= f64::EPSILON {
            0
        } else {
            (1.0 / miss_rate).round() as u64
        };
        RuntimeEngine {
            overhead: OverheadModel::new(cfg),
            host_cpu: HostCpuModel::new(&host.cpu),
            host_gpu: HostGpuModel::new(&host.gpu),
            l2p_miss_period,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// The overhead model.
    pub fn overhead_model(&self) -> &OverheadModel {
        &self.overhead
    }

    /// Places the program's data in the SSD before execution: operand groups
    /// of in-flash-capable instructions are co-located in the same flash
    /// block (the Flash-Cosmos layout constraint), everything else is striped
    /// across planes for parallelism. All application data resides in the SSD
    /// at the start of execution (§4.4). Pages a warm device has already
    /// mapped keep their existing placement, so re-preparing the same
    /// program on a warm device is idempotent.
    ///
    /// # Errors
    ///
    /// Propagates FTL allocation errors.
    pub fn prepare(&self, device: &mut SsdDevice, program: &VectorProgram) -> Result<()> {
        program.validate().map_err(ConduitError::invalid_program)?;
        // One buffer serves every group and slice run of the program.
        let mut pages: Vec<LogicalPageId> = Vec::new();
        for inst in program.iter() {
            let span = Self::pages_per_vector(inst);
            if Resource::Ifp.supports(inst.op) && inst.src_pages().nth(1).is_some() {
                // Co-locate slice k of every operand in one block; the
                // groups take the allocator's round-robin plane cursor, so
                // the slices spread across planes for multi-plane
                // parallelism.
                for k in 0..span {
                    pages.clear();
                    pages.extend(inst.src_pages().map(|p| p.offset(k)));
                    device.map_group(&pages)?;
                }
            } else {
                for p in inst.src_pages() {
                    pages.clear();
                    pages.extend((0..span).map(|k| p.offset(k)));
                    device.map_pages(&pages)?;
                }
            }
            if let Some(dst) = inst.dst_page {
                pages.clear();
                pages.extend((0..span).map(|k| dst.offset(k)));
                device.map_pages(&pages)?;
            }
        }
        Ok(())
    }

    /// Executes `program` under `options` on the borrowed `device` and
    /// returns the run report, strip-mining the program inline.
    ///
    /// # Errors
    ///
    /// Returns validation errors for malformed programs and simulation errors
    /// for device-level failures.
    pub fn run(
        &self,
        device: &mut SsdDevice,
        program: &VectorProgram,
        options: &RunOptions,
    ) -> Result<RunReport> {
        self.run_with_plan(device, program, options, None)
    }

    /// [`RuntimeEngine::run`] with an optional precomputed [`StripPlan`]
    /// (the session's plan cache). A plan computed for different options is
    /// ignored; the program is then strip-mined inline into the engine's
    /// reusable scratch (planning is O(n)).
    ///
    /// # Errors
    ///
    /// Returns validation errors for malformed programs and simulation errors
    /// for device-level failures.
    pub fn run_with_plan(
        &self,
        device: &mut SsdDevice,
        program: &VectorProgram,
        options: &RunOptions,
        plan: Option<&StripPlan>,
    ) -> Result<RunReport> {
        if program.is_empty() {
            return Err(ConduitError::invalid_program("program has no instructions"));
        }
        program.validate().map_err(ConduitError::invalid_program)?;
        let mut scratch = self
            .scratch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default();
        let result = self.execute(device, program, options, plan, &mut scratch);
        // Idle gaps are run-scoped: none outlives the run that opened it.
        device.end_run(
            result
                .as_ref()
                .ok()
                .map(|report| options.start + report.total_time),
        );
        self.scratch
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(scratch);
        result
    }

    /// The strip-mined run loop. Per strip of homogeneous instructions it
    /// reads the shape's cost row (resolved on the shape's first strip) and
    /// reserves the offloader core for the whole strip in one window; per
    /// instruction it places, stages, executes and commits in program
    /// order. Bookkeeping lives in the reusable struct-of-arrays `scratch`,
    /// and the timeline is materialized from the columns only when
    /// requested.
    fn execute(
        &self,
        device: &mut SsdDevice,
        program: &VectorProgram,
        options: &RunOptions,
        plan: Option<&StripPlan>,
        scratch: &mut RunScratch,
    ) -> Result<RunReport> {
        let policy = options.policy;
        let n = program.len();
        scratch.reset(n, options.start);
        let RunScratch {
            result_site,
            result_ready,
            placed,
            issued,
            finished,
            operand_locations,
            operand_first_pages,
            strips: strip_buf,
            rows,
        } = scratch;
        let strips: &[Strip] = match plan {
            Some(p) if p.matches(options) => p.strips(),
            _ => {
                StripPlan::plan_into(program, policy, strip_buf);
                strip_buf
            }
        };

        let mut offload_clock = options.start;
        let mut host_clock = options.start;
        let mut finish = options.start;

        let mut energy = EnergySummary::default();
        let mut breakdown = CostBreakdown::zero();
        let mut mix = OffloadMix::default();
        let mut latency = conduit_sim::LatencyStats::new();
        let mut overhead_report = OverheadReport::default();
        let mut lookups: u64 = 0;
        let exclusive = self.overhead.transformation();
        let insts = program.insts();

        for strip in strips {
            let first = &insts[strip.start];
            let row = match rows.iter().position(|row| row.is_for(first)) {
                Some(k) => &rows[k],
                None => {
                    rows.push(self.cost_row(device, options, first));
                    &rows[rows.len() - 1]
                }
            };

            // The unrealizable Ideal policy: no overhead, no data movement,
            // no contention — just the fastest compute latency. Its
            // placement depends only on the shape, so the whole strip runs
            // on the row's resource.
            if policy.is_contention_free() {
                let (resource, comp_latency, comp_energy) = row.ideal;
                let site = ExecutionSite::Ssd(resource);
                for idx in strip.start..strip.start + strip.len {
                    let inst = &insts[idx];
                    let issue = offload_clock;
                    let dep_ready = inst
                        .src_results()
                        .map(|id| result_ready[id.index()])
                        .fold(issue, SimTime::max);
                    mix.record(site);
                    let end = issue.max(dep_ready) + comp_latency;
                    energy.compute += comp_energy;
                    breakdown.compute += comp_latency;
                    result_site[idx] = resource.home_location();
                    result_ready[idx] = end;
                    finish = finish.max(end);
                    latency.record(end.saturating_since(issue));
                    placed[idx] = site;
                    issued[idx] = issue;
                    finished[idx] = end;
                }
                continue;
            }

            // One offloader-core reservation for the whole strip: each
            // instruction's exclusive window starts where the previous one
            // ended, chaining the offload clock through the strip.
            let window = if policy.pays_offloader_overhead() {
                Some(device.offloader_busy_strip(exclusive, offload_clock, strip.len as u64))
            } else {
                None
            };

            for i in 0..strip.len {
                let idx = strip.start + i;
                let inst = &insts[idx];
                let issue = if policy.is_host() {
                    host_clock
                } else {
                    offload_clock
                };

                // Gather operand locations and the data-dependence delay.
                operand_locations.clear();
                let mut dep_ready = issue;
                for src in &inst.srcs {
                    match src {
                        Operand::Page(p) => operand_locations.push(device.locate(*p)),
                        Operand::Result(id) => {
                            operand_locations.push(result_site[id.index()]);
                            dep_ready = dep_ready.max(result_ready[id.index()]);
                        }
                        Operand::Immediate(_) => {}
                    }
                }

                let site = match strip.site {
                    // Statically planned placement (pure function of the op).
                    Some(site) => site,
                    // Runtime-state-dependent placement, evaluated per
                    // instruction from the row's estimates.
                    None => policy.choose_site(
                        &options.cost_function,
                        inst.op,
                        &PolicyContext {
                            device: &*device,
                            estimates: &row.estimates,
                            now: issue,
                            operand_locations,
                            dependence_delay: dep_ready.saturating_since(issue),
                        },
                    ),
                };
                mix.record(site);

                // Offloader overhead (feature collection + transformation).
                // The offloader core pipelines feature collection for the
                // next instruction with the table lookups of the current
                // one, so only the translation-table lookup occupies the
                // core exclusively (the strip's window above); the full
                // overhead is still added to the instruction's dispatch
                // latency (§4.5).
                let mut dispatched = issue;
                if let Some(w) = &window {
                    lookups += 1;
                    let miss =
                        self.l2p_miss_period > 0 && lookups.is_multiple_of(self.l2p_miss_period);
                    let operands = inst.srcs.iter().filter(|s| s.needs_data()).count();
                    let ov = self.overhead.per_instruction(operands, miss);
                    overhead_report.record(ov);
                    energy.compute += w.energy_each;
                    breakdown.compute += w.step;
                    let ready = w.first_ready + w.step * (i as u64);
                    offload_clock = ready;
                    dispatched = ready + ov.saturating_sub(exclusive);
                }

                let dest = match site {
                    ExecutionSite::HostCpu | ExecutionSite::HostGpu => DataLocation::Host,
                    ExecutionSite::Ssd(r) => r.home_location(),
                };

                // Stage the operands at the execution site.
                let span = Self::pages_per_vector(inst);
                let mut data_ready = dispatched.max(dep_ready);
                let movement_earliest = data_ready;
                operand_first_pages.clear();
                for src in &inst.srcs {
                    match src {
                        Operand::Page(p) => {
                            operand_first_pages.push(*p);
                            for k in 0..span {
                                let c = device.ensure_at(p.offset(k), dest, movement_earliest)?;
                                data_ready = data_ready.max(c.ready);
                                energy.data_movement += c.energy;
                                breakdown.accumulate(c.breakdown);
                            }
                        }
                        Operand::Result(id) => {
                            let from = result_site[id.index()];
                            if from != dest {
                                let c = device.transfer_value(
                                    from,
                                    dest,
                                    inst.vector_bytes(),
                                    movement_earliest,
                                );
                                data_ready = data_ready.max(c.ready);
                                energy.data_movement += c.energy;
                                breakdown.accumulate(c.breakdown);
                                result_site[id.index()] = dest;
                            }
                        }
                        Operand::Immediate(_) => {}
                    }
                }

                // Execute.
                let comp = match site {
                    ExecutionSite::Ssd(resource) => {
                        device.execute(resource, &row.estimates, operand_first_pages, data_ready)?
                    }
                    ExecutionSite::HostCpu | ExecutionSite::HostGpu => {
                        let (t, e) = row.host;
                        host_clock = data_ready.max(host_clock) + t;
                        OpCompletion {
                            ready: host_clock,
                            breakdown: CostBreakdown {
                                compute: t,
                                ..CostBreakdown::zero()
                            },
                            energy: e,
                        }
                    }
                };
                energy.compute += comp.energy;
                breakdown.accumulate(comp.breakdown);

                result_site[idx] = dest;
                result_ready[idx] = comp.ready;
                let mut done = comp.ready;

                // Commit stored results (lazily, via the coherence
                // directory).
                if let Some(dst) = inst.dst_page {
                    for k in 0..span {
                        let mut written = comp.ready;
                        if dest == DataLocation::Host {
                            // OSP results return over the host link into the
                            // SSD's write cache; the host keeps its own copy,
                            // so later host-side reads of this page stay
                            // local.
                            let link = device.host_transfer(PAGE_BYTES, comp.ready);
                            energy.data_movement += link.energy;
                            breakdown.accumulate(link.breakdown);
                            written = link.ready;
                        }
                        let wb = device.record_result_write(dst.offset(k), dest, written)?;
                        done = done.max(wb.ready);
                        energy.data_movement += wb.energy;
                        breakdown.accumulate(wb.breakdown);
                    }
                }

                finish = finish.max(done);
                latency.record(done.saturating_since(issue));
                placed[idx] = site;
                issued[idx] = issue;
                finished[idx] = done;
            }
        }

        // Materialize the timeline from the scratch columns on demand.
        let timeline = if options.record_timeline {
            insts
                .iter()
                .enumerate()
                .map(|(i, inst)| TimelineEntry {
                    inst: inst.id,
                    op: inst.op,
                    site: placed[i],
                    dispatched: issued[i],
                    completed: finished[i],
                })
                .collect()
        } else {
            Vec::new()
        };

        Ok(RunReport {
            workload: program.name().to_string(),
            policy,
            instructions: n,
            total_time: finish.saturating_since(options.start),
            energy,
            breakdown,
            offload_mix: mix,
            latency,
            timeline,
            overhead: overhead_report,
        })
    }

    /// Resolves the cost row of `inst`'s shape for a run under `options`.
    fn cost_row(&self, device: &SsdDevice, options: &RunOptions, inst: &VectorInst) -> CostRow {
        let (op, elem_bits, lanes) = (inst.op, inst.elem_bits, inst.lanes);
        let estimates = device.estimate_strip(op, elem_bits, lanes, inst.vector_bytes());
        let host = match options.policy {
            Policy::HostCpu => {
                let t = self.host_cpu.compute_time(op, elem_bits, lanes);
                (t, self.host_cpu.energy(t))
            }
            Policy::HostGpu => {
                let t = self.host_gpu.compute_time(op, elem_bits, lanes);
                (t, self.host_gpu.energy(t))
            }
            _ => (Duration::ZERO, Energy::ZERO),
        };
        let ideal = if options.policy.is_contention_free() {
            let resource = options
                .cost_function
                .choose_ideal(&estimates)
                .map(|(r, _)| r)
                .unwrap_or(Resource::Isp);
            let est = estimates.compute_for(resource);
            (
                resource,
                est.map(|e| e.latency).unwrap_or(Duration::ZERO),
                est.map(|e| e.energy).unwrap_or(Energy::ZERO),
            )
        } else {
            (Resource::Isp, Duration::ZERO, Energy::ZERO)
        };
        CostRow {
            estimates,
            host,
            ideal,
        }
    }

    fn pages_per_vector(inst: &VectorInst) -> u64 {
        inst.vector_bytes().div_ceil(PAGE_BYTES).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::OpType;

    fn program() -> VectorProgram {
        let mut prog = VectorProgram::new("unit");
        let x = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
        let y = prog.push_binary(OpType::Add, Operand::result(x), Operand::page(8));
        prog.push(
            conduit_types::VectorInst::binary(
                2,
                OpType::Mul,
                Operand::result(y),
                Operand::page(12),
            )
            .store_to(LogicalPageId::new(16)),
        );
        prog
    }

    fn engine() -> (RuntimeEngine, SsdDevice) {
        let cfg = SsdConfig::small_for_tests();
        (
            RuntimeEngine::new(&cfg),
            SsdDevice::new(&cfg).expect("test config is valid"),
        )
    }

    #[test]
    fn empty_program_is_rejected() {
        let (e, mut dev) = engine();
        let prog = VectorProgram::new("empty");
        assert!(e
            .run(&mut dev, &prog, &RunOptions::new(Policy::Conduit))
            .is_err());
    }

    #[test]
    fn run_produces_consistent_report() {
        let prog = program();
        let (e, mut dev) = engine();
        e.prepare(&mut dev, &prog).unwrap();
        let report = e
            .run(&mut dev, &prog, &RunOptions::new(Policy::Conduit))
            .unwrap();
        assert_eq!(report.instructions, 3);
        assert_eq!(report.offload_mix.total(), 3);
        assert_eq!(report.timeline.len(), 3);
        assert_eq!(report.latency.len(), 3);
        assert!(report.total_time > Duration::ZERO);
        assert!(report.energy.total() > Energy::ZERO);
        assert!(report.overhead.count >= 3);
        assert!(report.overhead.mean() > Duration::from_us(1.0));
        // The timeline is causally ordered per instruction.
        for t in &report.timeline {
            assert!(t.completed >= t.dispatched);
        }
    }

    #[test]
    fn dependences_serialize_completion_times() {
        let prog = program();
        let (e, mut dev) = engine();
        e.prepare(&mut dev, &prog).unwrap();
        let report = e
            .run(&mut dev, &prog, &RunOptions::new(Policy::Conduit))
            .unwrap();
        let t = &report.timeline;
        assert!(t[1].completed > t[0].dispatched);
        assert!(t[2].completed >= t[1].completed);
        assert_eq!(
            report.total_time.as_ps(),
            t[2].completed.as_ps().max(t[1].completed.as_ps())
        );
    }

    #[test]
    fn ideal_is_faster_than_every_realizable_policy() {
        let prog = program();
        let mut reports = Vec::new();
        for policy in [
            Policy::Ideal,
            Policy::Conduit,
            Policy::IspOnly,
            Policy::HostCpu,
        ] {
            let (e, mut dev) = engine();
            e.prepare(&mut dev, &prog).unwrap();
            reports.push(e.run(&mut dev, &prog, &RunOptions::new(policy)).unwrap());
        }
        let ideal = &reports[0];
        for other in &reports[1..] {
            assert!(
                ideal.total_time <= other.total_time,
                "Ideal ({}) must not be slower than {} ({})",
                ideal.total_time,
                other.policy,
                other.total_time
            );
        }
    }

    #[test]
    fn host_policy_pays_pcie_data_movement() {
        let prog = program();
        let (e, mut dev) = engine();
        e.prepare(&mut dev, &prog).unwrap();
        let report = e
            .run(&mut dev, &prog, &RunOptions::new(Policy::HostCpu))
            .unwrap();
        assert_eq!(report.offload_mix.host, 3);
        assert!(report.breakdown.host_data_movement > Duration::ZERO);
        assert!(report.energy.data_movement > Energy::ZERO);
    }

    #[test]
    fn timeline_recording_can_be_disabled() {
        let prog = program();
        let (e, mut dev) = engine();
        e.prepare(&mut dev, &prog).unwrap();
        let report = e
            .run(
                &mut dev,
                &prog,
                &RunOptions::new(Policy::Conduit).without_timeline(),
            )
            .unwrap();
        assert!(report.timeline.is_empty());
        assert_eq!(report.instructions, 3);
    }

    #[test]
    fn prepare_colocates_ifp_capable_operand_groups() {
        let prog = program();
        let (e, mut dev) = engine();
        e.prepare(&mut dev, &prog).unwrap();
        // The XOR's operands (pages 0 and 4) must share a block.
        let a = dev.ftl().peek(LogicalPageId::new(0)).unwrap();
        let b = dev.ftl().peek(LogicalPageId::new(4)).unwrap();
        assert!(a.same_block(b));
    }

    #[test]
    fn start_time_shifts_a_fresh_run_without_changing_its_service_time() {
        let prog = program();
        let (e1, mut dev1) = engine();
        e1.prepare(&mut dev1, &prog).unwrap();
        let base = e1
            .run(&mut dev1, &prog, &RunOptions::new(Policy::Conduit))
            .unwrap();
        let (e2, mut dev2) = engine();
        e2.prepare(&mut dev2, &prog).unwrap();
        let start = SimTime::ZERO + Duration::from_us(500.0);
        let shifted = e2
            .run(
                &mut dev2,
                &prog,
                &RunOptions::new(Policy::Conduit).starting_at(start),
            )
            .unwrap();
        // On an idle device the start time is a pure translation: service
        // time, energy and placement are unchanged; only absolute timeline
        // stamps move.
        assert_eq!(shifted.total_time, base.total_time);
        assert_eq!(shifted.energy, base.energy);
        assert_eq!(shifted.offload_mix, base.offload_mix);
        assert!(shifted.timeline[0].dispatched >= start);
        assert_eq!(
            shifted.timeline[0].dispatched.saturating_since(start),
            base.timeline[0].dispatched.saturating_since(SimTime::ZERO)
        );
    }

    #[test]
    fn warm_device_reruns_continue_where_the_last_run_left_off() {
        let prog = program();
        let (e, mut dev) = engine();
        e.prepare(&mut dev, &prog).unwrap();
        let first = e
            .run(&mut dev, &prog, &RunOptions::new(Policy::Conduit))
            .unwrap();
        let ops_after_first = dev.snapshot().device_ops;
        // Same borrowed device again: timelines and FTL state carry over, so
        // cumulative counters keep growing (a fresh device would reset).
        e.prepare(&mut dev, &prog).unwrap();
        let _second = e
            .run(&mut dev, &prog, &RunOptions::new(Policy::Conduit))
            .unwrap();
        assert!(dev.snapshot().device_ops > ops_after_first);
        assert!(first.total_time > Duration::ZERO);
    }
}
