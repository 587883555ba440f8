//! The integrated SSD device model.
//!
//! [`SsdDevice`] wires the substrate models (flash, DRAM, controller cores,
//! FTL) to contended-resource timelines (channels, dies, banks, buses, cores,
//! the PCIe link) and exposes the primitive operations the runtime offloading
//! engine schedules:
//!
//! * moving a logical page's latest copy to wherever a computation needs it
//!   ([`SsdDevice::ensure_at`]), respecting the lazy coherence protocol,
//! * moving anonymous intermediate values between locations
//!   ([`SsdDevice::transfer_value`]),
//! * executing one vector instruction on a chosen SSD compute resource
//!   ([`SsdDevice::execute`]),
//! * host-link transfers and offloader-core busy time,
//! * the *estimates* the cost function needs (un-contended compute latency
//!   per resource, static data-movement latency, queueing delays, and
//!   utilizations).
//!
//! Every operation returns an [`OpCompletion`] carrying the completion time,
//! a [`CostBreakdown`] of where the service time went, and the energy it
//! consumed; energy is also accumulated in the device's [`EnergyMeter`].

use std::sync::Arc;

use conduit_ctrl::{CoreAllocation, IspModel};
use conduit_dram::{DramTiming, PudModel};
use conduit_flash::{FlashTiming, IfpModel, IfpPlacement};
use conduit_ftl::{Ftl, SyncAction};
use conduit_types::{
    ConduitError, DataLocation, Duration, Energy, EnergySource, FaultConfig, LogicalPageId, OpType,
    Resource, Result, SimTime, SsdConfig,
};

use crate::energy::EnergyMeter;
use crate::estimates::{self, StripEstimates, LOC_COUNT, RESOURCE_COUNT};
use crate::state::{check_geometry, DeviceSnapshot, DeviceState};
use crate::stats::CostBreakdown;

/// The outcome of one scheduled device operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpCompletion {
    /// When the operation finishes (includes any queueing).
    pub ready: SimTime,
    /// Where the *service* time (excluding queueing) was spent.
    pub breakdown: CostBreakdown,
    /// Energy consumed.
    pub energy: Energy,
}

/// One strip-wide offloader-core reservation (see
/// [`SsdDevice::offloader_busy_strip`]): the strip's instruction `i`
/// finishes its exclusive transformation window at `first_ready + step * i`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripWindow {
    /// When the strip's first instruction leaves the offloader core.
    pub first_ready: SimTime,
    /// Per-instruction exclusive window (the reservation's service time).
    pub step: Duration,
    /// Offloader energy charged per instruction.
    pub energy_each: Energy,
}

impl OpCompletion {
    /// A zero-cost completion at `at`.
    pub fn immediate(at: SimTime) -> Self {
        OpCompletion {
            ready: at,
            breakdown: CostBreakdown::zero(),
            energy: Energy::ZERO,
        }
    }

    /// Combines two completions that happened (possibly in parallel) as part
    /// of one logical step: ready time is the max, costs add.
    pub fn join(self, other: OpCompletion) -> OpCompletion {
        let mut breakdown = self.breakdown;
        breakdown.accumulate(other.breakdown);
        OpCompletion {
            ready: self.ready.max(other.ready),
            breakdown,
            energy: self.energy + other.energy,
        }
    }
}

/// The simulated SSD: immutable substrate models wrapped around the
/// persistent, mutable [`DeviceState`] (FTL, contention timelines,
/// residency, energy).
///
/// The models (timings, energy rates) are pure functions of the
/// [`SsdConfig`], so a device is exactly *models + state*:
/// [`SsdDevice::new`] pairs fresh models with a pristine state,
/// [`SsdDevice::with_state`] pairs them with a state carried over from
/// earlier runs (a **warm** device), and [`SsdDevice::into_state`] hands the
/// state back for the next run. Simulation results depend only on the
/// configuration and the state, never on which `SsdDevice` wrapper executed
/// them. The device caches no estimates: [`SsdDevice::estimate_strip`]
/// evaluates the models for one instruction shape, and the run loop keeps
/// that row for the run.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone)]
pub struct SsdDevice {
    /// The immutable substrate models, shared by clones of the device.
    models: Arc<DeviceModels>,
    /// Everything that mutates as instructions execute.
    state: DeviceState,
}

/// The immutable half of an [`SsdDevice`]: every timing/energy model, all
/// pure functions of the [`SsdConfig`]. Nothing in here mutates after
/// construction, so clones of a device share one `DeviceModels`.
#[derive(Debug)]
struct DeviceModels {
    cfg: SsdConfig,
    flash_timing: FlashTiming,
    ifp: IfpModel,
    pud: PudModel,
    dram_timing: DramTiming,
    isp: IspModel,
}

impl DeviceModels {
    /// Builds every substrate model from the configuration.
    fn new(cfg: &SsdConfig) -> Self {
        DeviceModels {
            cfg: cfg.clone(),
            flash_timing: FlashTiming::new(&cfg.flash),
            ifp: IfpModel::new(&cfg.flash),
            pud: PudModel::new(&cfg.dram),
            dram_timing: DramTiming::new(&cfg.dram),
            isp: IspModel::new(&cfg.ctrl),
        }
    }
}

impl SsdDevice {
    /// Builds a pristine device from its configuration.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the FTL or core allocation.
    pub fn new(cfg: &SsdConfig) -> Result<Self> {
        let state = DeviceState::new(cfg)?;
        Self::with_state(cfg, state)
    }

    /// Builds a pristine device with a fault-injection plan attached (see
    /// [`DeviceState::new_with_faults`]). With the default (inert)
    /// [`FaultConfig`] this is identical to [`SsdDevice::new`].
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the FTL or core allocation.
    pub fn with_faults(cfg: &SsdConfig, faults: FaultConfig) -> Result<Self> {
        let state = DeviceState::new_with_faults(cfg, faults)?;
        Self::with_state(cfg, state)
    }

    /// Builds a device around an existing (possibly warm) [`DeviceState`].
    /// The models are rebuilt from `cfg`; because they are pure functions of
    /// the configuration, wrapping a state in a new device never changes
    /// simulation results.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for zero-byte flash pages, a DRAM
    /// geometry without PuD compute units or DRAM rows narrower than one
    /// 64-bit element, and from the core allocation.
    pub fn with_state(cfg: &SsdConfig, state: DeviceState) -> Result<Self> {
        check_geometry(cfg)?;
        CoreAllocation::standard(&cfg.ctrl)?;
        Ok(SsdDevice {
            models: Arc::new(DeviceModels::new(cfg)),
            state,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.models.cfg
    }

    /// The persistent device state (read-only).
    pub fn state(&self) -> &DeviceState {
        &self.state
    }

    /// Consumes the device, returning its persistent state so a later run
    /// can continue on a warm device ([`SsdDevice::with_state`]).
    pub fn into_state(self) -> DeviceState {
        self.state
    }

    /// Cumulative counters of everything that has happened on this device
    /// (see [`DeviceSnapshot`]).
    pub fn snapshot(&self) -> DeviceSnapshot {
        self.state.snapshot()
    }

    /// Ends a run on this device that finished at `finish`, or failed
    /// (`None`): every contention timeline drops its idle gaps (see
    /// [`SharedResource`](crate::SharedResource)). Gaps are run-scoped: none
    /// ends after the run's finish, which debug builds check, and the next
    /// run issues at or after it, so no later reservation could start in
    /// one.
    pub fn end_run(&mut self, finish: Option<SimTime>) {
        let last_gap = self.state.clear_gaps();
        if let (Some(finish), Some(last_gap)) = (finish, last_gap) {
            debug_assert!(
                last_gap <= finish,
                "an idle gap ends at {last_gap}, after the run's finish at {finish}"
            );
        }
    }

    /// Folds one served lane request into the device's lane statistics (see
    /// [`DeviceState::record_lane_request`]).
    pub fn record_lane_request(
        &mut self,
        idle: conduit_types::Duration,
        queued: conduit_types::Duration,
        busy: conduit_types::Duration,
    ) {
        self.state.record_lane_request(idle, queued, busy);
    }

    /// Resets the windowed lane statistics (see
    /// [`DeviceState::reset_lane_window`]).
    pub fn reset_lane_window(&mut self) {
        self.state.reset_lane_window();
    }

    /// The flash translation layer (read-only).
    pub fn ftl(&self) -> &Ftl {
        &self.state.ftl
    }

    /// The accumulated energy meter.
    pub fn energy_meter(&self) -> &EnergyMeter {
        &self.state.energy
    }

    /// Maps (initially places) logical pages with plane striping.
    ///
    /// # Errors
    ///
    /// Propagates FTL mapping errors.
    pub fn map_pages(&mut self, pages: &[LogicalPageId]) -> Result<()> {
        self.state.ftl.map_pages(pages)
    }

    /// Maps a group of logical pages co-located in one flash block (the
    /// layout in-flash multi-operand compute requires), on the next plane
    /// of the striping rotation.
    ///
    /// # Errors
    ///
    /// Propagates FTL mapping errors.
    pub fn map_group(&mut self, pages: &[LogicalPageId]) -> Result<()> {
        self.state.ftl.map_group(pages)
    }

    /// Where the latest copy of `page` currently lives.
    pub fn locate(&self, page: LogicalPageId) -> DataLocation {
        let owner = self.state.ftl.coherence().owner(page);
        if owner != DataLocation::Flash {
            return owner;
        }
        if self.state.dram_cache.contains(page) {
            DataLocation::Dram
        } else if self.state.ctrl_cache.contains(page) {
            DataLocation::CtrlSram
        } else {
            DataLocation::Flash
        }
    }

    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------

    /// Moves the latest copy of `page` to `dest`, handling coherence
    /// flushes, and returns when (and at what cost) it gets there.
    ///
    /// # Errors
    ///
    /// Fails if the page was never mapped or the device runs out of space
    /// while committing dirty data.
    pub fn ensure_at(
        &mut self,
        page: LogicalPageId,
        dest: DataLocation,
        earliest: SimTime,
    ) -> Result<OpCompletion> {
        let current = self.locate(page);
        if current == dest {
            return Ok(OpCompletion::immediate(earliest));
        }
        // Host memory keeps its own copy of previously-fetched pages; as long
        // as no SSD resource has produced a newer version, re-reads are free.
        if dest == DataLocation::Host
            && self.state.host_cache.contains(page)
            && self.state.ftl.coherence().owner(page) == DataLocation::Flash
        {
            return Ok(OpCompletion::immediate(earliest));
        }
        // If another location holds a dirty copy and we need it elsewhere,
        // the lazy-coherence protocol commits it to flash first.
        let mut completion = OpCompletion::immediate(earliest);
        let owner = self.state.ftl.coherence().owner(page);
        let dirty_elsewhere =
            owner != DataLocation::Flash && owner != dest && dest != DataLocation::Flash;
        if dirty_elsewhere || (dest == DataLocation::Flash && owner != DataLocation::Flash) {
            let sync = self.state.ftl.coherence_mut().acquire(page, dest);
            if let SyncAction::FlushToFlash { from } = sync {
                let flush = self.commit_page(page, from, completion.ready)?;
                completion = completion.join(flush);
            }
            if dest == DataLocation::Flash {
                return Ok(completion);
            }
        }
        // Now the source of truth is flash (or a clean cached copy).
        let move_cost = match (self.locate(page), dest) {
            (DataLocation::Dram, DataLocation::CtrlSram)
            | (DataLocation::CtrlSram, DataLocation::Dram) => {
                self.dram_to_ctrl_transfer(completion.ready)
            }
            (DataLocation::Dram, DataLocation::Host)
            | (DataLocation::CtrlSram, DataLocation::Host) => {
                self.host_transfer(self.models.cfg.flash.page_bytes, completion.ready)
            }
            (DataLocation::Flash, _) => {
                let to_internal = self.flash_read_page(page, completion.ready)?;
                if dest == DataLocation::Host {
                    let link =
                        self.host_transfer(self.models.cfg.flash.page_bytes, to_internal.ready);
                    to_internal.join(link)
                } else {
                    to_internal
                }
            }
            (DataLocation::Host, _) => {
                // Host-resident data flowing back into the SSD.
                self.host_transfer(self.models.cfg.flash.page_bytes, completion.ready)
            }
            _ => OpCompletion::immediate(completion.ready),
        };
        completion = completion.join(move_cost);
        self.note_residency(page, dest);
        Ok(completion)
    }

    /// Records that a computation executing at `writer` produced a new
    /// version of `page` (a store). Any dirty copy held by a *different*
    /// resource is committed to flash first, per the coherence protocol.
    ///
    /// # Errors
    ///
    /// Returns [`conduit_types::ConduitError::DeviceDegraded`] — before
    /// touching any coherence state — if the device has exhausted its
    /// spare-block budget, and propagates flash-commit errors.
    pub fn record_result_write(
        &mut self,
        page: LogicalPageId,
        writer: DataLocation,
        earliest: SimTime,
    ) -> Result<OpCompletion> {
        self.state.ftl.ensure_writable()?;
        let action = self.state.ftl.coherence_mut().record_write(page, writer);
        let completion = match action {
            SyncAction::None => OpCompletion::immediate(earliest),
            SyncAction::FlushToFlash { from } => self.commit_page(page, from, earliest)?,
        };
        // Any SSD-side write supersedes a copy the host may hold.
        if writer != DataLocation::Host {
            self.state.host_cache.remove(page);
        }
        self.note_residency(page, writer);
        Ok(completion)
    }

    /// Moves `bytes` of anonymous intermediate data (an instruction result
    /// that is not bound to a logical page) between two locations.
    pub fn transfer_value(
        &mut self,
        from: DataLocation,
        to: DataLocation,
        bytes: u64,
        earliest: SimTime,
    ) -> OpCompletion {
        if from == to {
            return OpCompletion::immediate(earliest);
        }
        match (from, to) {
            (DataLocation::Dram, DataLocation::CtrlSram)
            | (DataLocation::CtrlSram, DataLocation::Dram) => self.bus_move(bytes, earliest),
            (DataLocation::Flash, DataLocation::Dram)
            | (DataLocation::Flash, DataLocation::CtrlSram) => {
                self.flash_read_bytes(bytes, earliest)
            }
            (DataLocation::Dram, DataLocation::Flash)
            | (DataLocation::CtrlSram, DataLocation::Flash) => {
                self.flash_program_bytes(bytes, earliest)
            }
            (DataLocation::Host, _) | (_, DataLocation::Host) => {
                self.host_transfer(bytes, earliest)
            }
            _ => OpCompletion::immediate(earliest),
        }
    }

    /// Transfers `bytes` over the host link (NVMe command overhead + PCIe),
    /// in either direction: the link is modelled as symmetric.
    pub fn host_transfer(&mut self, bytes: u64, earliest: SimTime) -> OpCompletion {
        let service =
            self.models.cfg.link.nvme_cmd_latency + self.models.cfg.link.transfer_time(bytes);
        let (_, end) = self.state.pcie.reserve(earliest, service);
        let energy = self.models.cfg.link.e_per_byte * (bytes as f64);
        self.state.energy.charge(EnergySource::HostLink, energy);
        OpCompletion {
            ready: end,
            breakdown: CostBreakdown {
                host_data_movement: service,
                ..CostBreakdown::zero()
            },
            energy,
        }
    }

    /// Occupies the offloader core for `count` back-to-back exclusive
    /// windows of `dur` each (feature collection and instruction
    /// transformation overheads, §4.5) — a whole strip's overheads in one
    /// timeline reservation.
    ///
    /// The window is `[max(earliest, busy_until), start + dur * count)`,
    /// exactly what `count` single reservations chained on the run loop's
    /// offload clock would occupy, and the per-instruction energy is charged
    /// `count` times in order, as those reservations would charge it.
    pub fn offloader_busy_strip(
        &mut self,
        dur: Duration,
        earliest: SimTime,
        count: u64,
    ) -> StripWindow {
        let (start, _end) = self.state.offloader_core.commit_batch(earliest, dur, count);
        let energy_each = Energy::from_power(self.models.cfg.ctrl.core_power_w, dur);
        for _ in 0..count {
            self.state
                .energy
                .charge(EnergySource::Offloader, energy_each);
        }
        StripWindow {
            first_ready: start + dur,
            step: dur,
            energy_each,
        }
    }

    // ------------------------------------------------------------------
    // Compute execution
    // ------------------------------------------------------------------

    /// Executes one vector instruction, of the operation and shape
    /// `estimates` was resolved for ([`SsdDevice::estimate_strip`]), on the
    /// chosen SSD compute resource. PuD and ISP charge the row's cost for
    /// their resource; IFP costs its operands' actual placement. Operands
    /// must already be at the resource's home location (use
    /// [`SsdDevice::ensure_at`] first); `operand_pages` is used only to
    /// derive the physical placement for in-flash execution.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::UnsupportedOperation`] if the resource cannot
    /// execute the operation.
    pub fn execute(
        &mut self,
        resource: Resource,
        estimates: &StripEstimates,
        operand_pages: &[LogicalPageId],
        earliest: SimTime,
    ) -> Result<OpCompletion> {
        let (op, elem_bits, lanes) = (estimates.op, estimates.elem_bits, estimates.lanes);
        match resource {
            Resource::Ifp => self.execute_ifp(op, elem_bits, lanes, operand_pages, earliest),
            Resource::PudSsd => self.execute_pud(estimates, earliest),
            Resource::Isp => self.execute_isp(estimates, earliest),
        }
    }

    /// Executes an in-flash (IFP) operation.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::UnsupportedOperation`] for ops outside the IFP
    /// set.
    pub fn execute_ifp(
        &mut self,
        op: OpType,
        elem_bits: u32,
        lanes: u32,
        operand_pages: &[LogicalPageId],
        earliest: SimTime,
    ) -> Result<OpCompletion> {
        let placement = self.ifp_placement(operand_pages);
        let cost = self.models.ifp.op_cost(op, elem_bits, lanes, placement)?;
        // The operation occupies the die holding the first operand (or the
        // least-busy die when operands are intermediate values).
        let end = match operand_pages.first().and_then(|p| self.state.ftl.peek(*p)) {
            Some(addr) => {
                let die = self.state.ftl.flash_state().geometry().die_index_of(addr) as usize;
                let (_, end) = self.state.dies.reserve_unit(die, earliest, cost.latency);
                end
            }
            None => {
                let (_, end, _) = self.state.dies.reserve(earliest, cost.latency);
                end
            }
        };
        self.state.energy.charge(EnergySource::Ifp, cost.energy);
        Ok(OpCompletion {
            ready: end,
            breakdown: CostBreakdown {
                flash_array: cost.latency,
                ..CostBreakdown::zero()
            },
            energy: cost.energy,
        })
    }

    /// Executes a processing-using-DRAM (PuD-SSD) operation of the shape
    /// `estimates` was resolved for ([`SsdDevice::estimate_strip`]). Its
    /// sub-operations are one gang reservation on the bank pool
    /// ([`ResourcePool::reserve_gang`](crate::ResourcePool::reserve_gang)):
    /// they run in waves over the subarrays free at `earliest`, each
    /// reserving its unit for the whole service time, and any left over
    /// queue for the earliest unit to free up.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::UnsupportedOperation`] for ops outside the
    /// PuD set.
    pub fn execute_pud(
        &mut self,
        estimates: &StripEstimates,
        earliest: SimTime,
    ) -> Result<OpCompletion> {
        let shape = estimates.pud.ok_or(ConduitError::UnsupportedOperation {
            op: estimates.op,
            resource: Resource::PudSsd,
        })?;
        // The free count never exceeds the pool's unit count, a `u32`.
        let (latency, ready) =
            self.state
                .dram_banks
                .reserve_gang(earliest, shape.sub_ops as usize, |free| {
                    shape.latency(free as u32)
                });
        self.state.energy.charge(EnergySource::Pud, shape.energy);
        Ok(OpCompletion {
            ready,
            breakdown: CostBreakdown {
                compute: latency,
                ..CostBreakdown::zero()
            },
            energy: shape.energy,
        })
    }

    /// Executes an operation of the shape `estimates` was resolved for
    /// ([`SsdDevice::estimate_strip`]) on an ISP compute core, charging the
    /// row's ISP latency and energy.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::UnsupportedOperation`] if the row has no ISP
    /// entry.
    pub fn execute_isp(
        &mut self,
        estimates: &StripEstimates,
        earliest: SimTime,
    ) -> Result<OpCompletion> {
        let cost =
            estimates
                .compute_for(Resource::Isp)
                .ok_or(ConduitError::UnsupportedOperation {
                    op: estimates.op,
                    resource: Resource::Isp,
                })?;
        let (_, end, _) = self.state.compute_cores.reserve(earliest, cost.latency);
        self.state.energy.charge(EnergySource::Isp, cost.energy);
        Ok(OpCompletion {
            ready: end,
            breakdown: CostBreakdown {
                compute: cost.latency,
                ..CostBreakdown::zero()
            },
            energy: cost.energy,
        })
    }

    // ------------------------------------------------------------------
    // Cost-function estimates (no side effects on the timelines)
    // ------------------------------------------------------------------

    /// Every per-resource estimate an instruction of this operation and
    /// shape shares: the un-contended compute latency and energy per
    /// candidate resource (`latency_comp`, `None` where the resource cannot
    /// execute `op`), the static latency of moving a `vector_bytes` vector
    /// from each location to each resource's home (`latency_dm`, §4.3.2),
    /// and the shape's PuD cost. Each entry is evaluated from the substrate
    /// models; the run loop resolves one row per shape per run.
    pub fn estimate_strip(
        &self,
        op: OpType,
        elem_bits: u32,
        lanes: u32,
        vector_bytes: u64,
    ) -> StripEstimates {
        let m = &*self.models;
        let mut compute = [None; RESOURCE_COUNT];
        let mut moves = [[Duration::ZERO; LOC_COUNT]; RESOURCE_COUNT];
        for resource in Resource::ALL {
            let i = resource.index();
            if resource.supports(op) {
                compute[i] = estimates::compute_estimate(
                    &m.cfg, &m.ifp, &m.pud, &m.isp, resource, op, elem_bits, lanes,
                );
            }
            for loc in DataLocation::ALL {
                moves[i][loc.encoding() as usize] = estimates::static_move(
                    &m.cfg,
                    &m.flash_timing,
                    &m.dram_timing,
                    loc,
                    resource.home_location(),
                    vector_bytes,
                );
            }
        }
        StripEstimates {
            op,
            elem_bits,
            lanes,
            pud: m.pud.shape(op, elem_bits, lanes).ok(),
            compute,
            moves,
        }
    }

    /// The queueing delay a new operation would currently see on `resource`
    /// (the `delay_queue` feature).
    pub fn queue_delay(&self, resource: Resource, at: SimTime) -> Duration {
        match resource {
            Resource::Isp => self.state.compute_cores.queue_delay(at),
            Resource::PudSsd => self.state.dram_banks.queue_delay(at),
            Resource::Ifp => self.state.dies.queue_delay(at),
        }
    }

    /// Utilization of `resource` over `[0, now]` (the signal BW-Offloading
    /// style policies use).
    pub fn utilization(&self, resource: Resource, now: SimTime) -> f64 {
        match resource {
            Resource::Isp => self.state.compute_cores.utilization(now),
            Resource::PudSsd => {
                0.5 * (self.state.dram_banks.utilization(now)
                    + self.state.dram_bus.utilization(now))
            }
            Resource::Ifp => self.state.dies.utilization(now),
        }
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    fn ifp_placement(&self, operand_pages: &[LogicalPageId]) -> IfpPlacement {
        // Single pass, no heap allocation: compare every mapped operand
        // address against the first one (instructions have ≤ 3 operands).
        let mut first = None;
        let mut mapped: u32 = 0;
        let mut same_block = true;
        let mut same_plane = true;
        for p in operand_pages {
            let Some(addr) = self.state.ftl.peek(*p) else {
                continue;
            };
            match first {
                None => first = Some(addr),
                Some(f) => {
                    same_block &= addr.same_block(f);
                    same_plane &= addr.same_plane(f);
                }
            }
            mapped += 1;
        }
        if mapped < 2 {
            return IfpPlacement::SameBlock { operands: 2 };
        }
        if same_block {
            IfpPlacement::SameBlock { operands: mapped }
        } else if same_plane {
            IfpPlacement::SamePlane { operands: mapped }
        } else {
            IfpPlacement::Scattered { operands: mapped }
        }
    }

    /// Reads one mapped page from flash into the SSD-internal buffers
    /// (die sensing + channel DMA + DRAM bus write). Transient read errors
    /// injected by the fault plan are recovered by re-sensing the page: each
    /// retry occupies the die for another full page read and charges another
    /// read's energy.
    fn flash_read_page(&mut self, page: LogicalPageId, earliest: SimTime) -> Result<OpCompletion> {
        let (addr, l2p_hit) = self.state.ftl.translate(page)?;
        let geo = self.state.ftl.flash_state().geometry();
        let die = geo.die_index_of(addr) as usize;
        let channel = addr.channel as usize % self.state.channels.len();
        let senses = 1 + self.state.ftl.roll_read_retries(addr) as u64;

        let l2p_penalty = if l2p_hit {
            Duration::ZERO
        } else {
            self.models.cfg.overheads.l2p_lookup_flash
        };
        let sense_start = earliest + l2p_penalty;
        let sense_service = self.models.flash_timing.read_page() * senses;
        let (_, sense_end) = self
            .state
            .dies
            .reserve_unit(die, sense_start, sense_service);
        let (_, dma_end) =
            self.state.channels[channel].reserve(sense_end, self.models.flash_timing.page_dma());
        let bus = self.state.dram_bus.reserve(
            dma_end,
            self.models
                .dram_timing
                .bus_transfer(self.models.cfg.flash.page_bytes),
        );

        let energy = self.models.flash_timing.read_energy() * senses
            + self.models.flash_timing.dma_energy()
            + self
                .models
                .dram_timing
                .transfer_energy(self.models.cfg.flash.page_bytes);
        self.state.energy.charge(EnergySource::FlashRead, energy);
        Ok(OpCompletion {
            ready: bus.1,
            breakdown: CostBreakdown {
                flash_array: sense_service + l2p_penalty,
                internal_data_movement: self.models.flash_timing.page_dma()
                    + self
                        .models
                        .dram_timing
                        .bus_transfer(self.models.cfg.flash.page_bytes),
                ..CostBreakdown::zero()
            },
            energy,
        })
    }

    /// Commits the dirty copy of `page` held at `from` back to flash
    /// (out-of-place program through the FTL, including any GC work).
    fn commit_page(
        &mut self,
        page: LogicalPageId,
        from: DataLocation,
        earliest: SimTime,
    ) -> Result<OpCompletion> {
        // Stage the data to the channel: DRAM/SRAM read over the internal bus.
        let bus = self.bus_move(self.models.cfg.flash.page_bytes, earliest);
        let (new_addr, gc) = self.state.ftl.rewrite(page)?;
        let geo = self.state.ftl.flash_state().geometry();
        let die = geo.die_index_of(new_addr) as usize;
        let channel = new_addr.channel as usize % self.state.channels.len();
        let (_, dma_end) =
            self.state.channels[channel].reserve(bus.ready, self.models.flash_timing.page_dma());
        let (_, prog_end) =
            self.state
                .dies
                .reserve_unit(die, dma_end, self.models.flash_timing.program_page());

        let mut energy =
            self.models.flash_timing.dma_energy() + self.models.flash_timing.program_energy();
        let mut flash_time = self.models.flash_timing.program_page();
        // Garbage collection triggered by this commit: each relocation is a
        // read + program, each erase a block erase.
        if !gc.is_empty() {
            let reloc = gc.relocated_pages;
            let gc_latency = (self.models.flash_timing.read_page()
                + self.models.flash_timing.program_page())
                * reloc
                + self.models.flash_timing.erase_block() * gc.erased_blocks;
            let (_, gc_end) = self.state.dies.reserve_unit(die, prog_end, gc_latency);
            flash_time += gc_latency;
            energy += (self.models.flash_timing.read_energy()
                + self.models.flash_timing.program_energy())
                * reloc;
            let _ = gc_end;
        }
        self.state.energy.charge(EnergySource::FlashCommit, energy);
        self.evict_residency(page, from);
        Ok(OpCompletion {
            ready: prog_end,
            breakdown: CostBreakdown {
                internal_data_movement: self.models.flash_timing.page_dma(),
                flash_array: flash_time,
                ..CostBreakdown::zero()
            },
            energy: energy + bus.energy,
        }
        .join(bus))
    }

    /// Anonymous flash read of `bytes` (used for intermediate values only).
    fn flash_read_bytes(&mut self, bytes: u64, earliest: SimTime) -> OpCompletion {
        let pages = bytes.div_ceil(self.models.cfg.flash.page_bytes).max(1);
        let service =
            (self.models.flash_timing.read_page() + self.models.flash_timing.page_dma()) * pages;
        let (_, end, _) = self.state.dies.reserve(earliest, service);
        let energy = (self.models.flash_timing.read_energy()
            + self.models.flash_timing.dma_energy())
            * pages;
        self.state.energy.charge(EnergySource::FlashRead, energy);
        OpCompletion {
            ready: end,
            breakdown: CostBreakdown {
                flash_array: self.models.flash_timing.read_page() * pages,
                internal_data_movement: self.models.flash_timing.page_dma() * pages,
                ..CostBreakdown::zero()
            },
            energy,
        }
    }

    /// Anonymous flash program of `bytes` (used for intermediate values).
    fn flash_program_bytes(&mut self, bytes: u64, earliest: SimTime) -> OpCompletion {
        let pages = bytes.div_ceil(self.models.cfg.flash.page_bytes).max(1);
        let service =
            (self.models.flash_timing.page_dma() + self.models.flash_timing.program_page()) * pages;
        let (_, end, _) = self.state.dies.reserve(earliest, service);
        let energy = (self.models.flash_timing.dma_energy()
            + self.models.flash_timing.program_energy())
            * pages;
        self.state.energy.charge(EnergySource::FlashProgram, energy);
        OpCompletion {
            ready: end,
            breakdown: CostBreakdown {
                flash_array: self.models.flash_timing.program_page() * pages,
                internal_data_movement: self.models.flash_timing.page_dma() * pages,
                ..CostBreakdown::zero()
            },
            energy,
        }
    }

    fn dram_to_ctrl_transfer(&mut self, earliest: SimTime) -> OpCompletion {
        self.bus_move(self.models.cfg.flash.page_bytes, earliest)
    }

    fn bus_move(&mut self, bytes: u64, earliest: SimTime) -> OpCompletion {
        let service = self.models.dram_timing.bus_transfer(bytes);
        let (_, end) = self.state.dram_bus.reserve(earliest, service);
        let energy = self.models.dram_timing.transfer_energy(bytes);
        self.state.energy.charge(EnergySource::DramBus, energy);
        OpCompletion {
            ready: end,
            breakdown: CostBreakdown {
                internal_data_movement: service,
                ..CostBreakdown::zero()
            },
            energy,
        }
    }

    /// Caches a copy of `page` at `loc`. A copy `loc` owns dirty is never
    /// evicted before it is written back.
    fn note_residency(&mut self, page: LogicalPageId, loc: DataLocation) {
        let state = &mut self.state;
        let cache = match loc {
            DataLocation::Dram => &mut state.dram_cache,
            DataLocation::CtrlSram => &mut state.ctrl_cache,
            DataLocation::Host => &mut state.host_cache,
            DataLocation::Flash => return,
        };
        let coherence = state.ftl.coherence();
        cache.insert(page, |victim| coherence.owner(victim) == loc);
    }

    /// Drops the copy of `page` that DRAM or controller SRAM held at `from`,
    /// which was just committed to flash.
    fn evict_residency(&mut self, page: LogicalPageId, from: DataLocation) {
        match from {
            DataLocation::Dram => self.state.dram_cache.remove(page),
            DataLocation::CtrlSram => self.state.ctrl_cache.remove(page),
            DataLocation::Host | DataLocation::Flash => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CostEstimate;

    fn device() -> SsdDevice {
        SsdDevice::new(&SsdConfig::small_for_tests()).unwrap()
    }

    fn pages(range: std::ops::Range<u64>) -> Vec<LogicalPageId> {
        range.map(LogicalPageId::new).collect()
    }

    #[test]
    fn unmapped_page_movement_fails() {
        let mut dev = device();
        assert!(dev
            .ensure_at(LogicalPageId::new(0), DataLocation::Dram, SimTime::ZERO)
            .is_err());
    }

    #[test]
    fn flash_to_dram_movement_costs_a_read() {
        let mut dev = device();
        dev.map_pages(&pages(0..1)).unwrap();
        let c = dev
            .ensure_at(LogicalPageId::new(0), DataLocation::Dram, SimTime::ZERO)
            .unwrap();
        // At least one tR (22.5 us) plus a channel DMA.
        assert!(c.ready.saturating_since(SimTime::ZERO) > Duration::from_us(22.5));
        assert!(c.breakdown.flash_array >= Duration::from_us(22.5));
        assert_eq!(dev.locate(LogicalPageId::new(0)), DataLocation::Dram);
        // Second request is free: the page is already cached.
        let again = dev
            .ensure_at(LogicalPageId::new(0), DataLocation::Dram, c.ready)
            .unwrap();
        assert_eq!(again.ready, c.ready);
        assert!(again.energy.is_zero());
    }

    #[test]
    fn dirty_page_moves_through_flash_commit() {
        let mut dev = device();
        dev.map_pages(&pages(0..1)).unwrap();
        let page = LogicalPageId::new(0);
        // A PuD computation wrote the page in DRAM.
        dev.record_result_write(page, DataLocation::Dram, SimTime::ZERO)
            .unwrap();
        assert_eq!(dev.locate(page), DataLocation::Dram);
        // IFP now needs it in flash: the dirty copy must be committed.
        let c = dev
            .ensure_at(page, DataLocation::Flash, SimTime::ZERO)
            .unwrap();
        assert!(c.breakdown.flash_array >= Duration::from_us(400.0));
        assert_eq!(dev.locate(page), DataLocation::Flash);
    }

    #[test]
    fn execute_dispatches_to_all_resources() {
        let mut dev = device();
        dev.map_group(&pages(0..2)).unwrap();
        let ps = pages(0..2);
        let add = dev.estimate_strip(OpType::Add, 32, 4096, 16 * 1024);
        for resource in Resource::ALL {
            let c = dev.execute(resource, &add, &ps, SimTime::ZERO).unwrap();
            assert!(c.ready > SimTime::ZERO);
            assert!(c.energy > Energy::ZERO);
        }
        let div = dev.estimate_strip(OpType::Div, 32, 4096, 16 * 1024);
        for resource in [Resource::Ifp, Resource::PudSsd] {
            let err = dev.execute(resource, &div, &ps, SimTime::ZERO).unwrap_err();
            assert!(matches!(err, ConduitError::UnsupportedOperation { .. }));
        }
    }

    #[test]
    fn colocated_operands_make_ifp_cheaper_than_scattered() {
        let mut dev = device();
        dev.map_group(&pages(0..2)).unwrap();
        // Striped pages land on different planes.
        dev.map_pages(&pages(10..12)).unwrap();
        let colocated = dev
            .execute_ifp(OpType::And, 32, 4096, &pages(0..2), SimTime::ZERO)
            .unwrap();
        let scattered = dev
            .execute_ifp(OpType::And, 32, 4096, &pages(10..12), SimTime::ZERO)
            .unwrap();
        let co = colocated.ready.saturating_since(SimTime::ZERO);
        let sc = scattered.ready.saturating_since(SimTime::ZERO);
        assert!(sc > co * 2);
    }

    #[test]
    fn queue_delays_grow_with_backlog() {
        let mut dev = device();
        assert_eq!(
            dev.queue_delay(Resource::Isp, SimTime::ZERO),
            Duration::ZERO
        );
        let mul = dev.estimate_strip(OpType::Mul, 32, 4096, 16 * 1024);
        for _ in 0..4 {
            dev.execute_isp(&mul, SimTime::ZERO).unwrap();
        }
        assert!(dev.queue_delay(Resource::Isp, SimTime::ZERO) > Duration::ZERO);
        assert!(dev.utilization(Resource::Isp, SimTime::ZERO + Duration::from_us(10.0)) > 0.0);
    }

    #[test]
    fn isp_execution_charges_the_row_it_is_handed() {
        let mut dev = device();
        let mut add = dev.estimate_strip(OpType::Add, 32, 4096, 16 * 1024);
        let modelled = add.compute_for(Resource::Isp).unwrap();
        let scaled = CostEstimate {
            latency: modelled.latency * 3,
            energy: modelled.energy * 3.0,
        };
        add.compute[Resource::Isp.index()] = Some(scaled);
        let c = dev
            .execute(Resource::Isp, &add, &[], SimTime::ZERO)
            .unwrap();
        assert_eq!(c.ready, SimTime::ZERO + scaled.latency);
        assert_eq!(c.breakdown.compute, scaled.latency);
        assert_eq!(c.energy, scaled.energy);
        assert_eq!(dev.energy_meter().source(EnergySource::Isp), scaled.energy);
        // A row without an ISP entry is an unsupported operation.
        add.compute[Resource::Isp.index()] = None;
        let err = dev
            .execute(Resource::Isp, &add, &[], SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(
            err,
            ConduitError::UnsupportedOperation {
                op: OpType::Add,
                resource: Resource::Isp
            }
        ));
    }

    #[test]
    fn estimates_reflect_supportability_and_magnitude() {
        let dev = device();
        let div = dev.estimate_strip(OpType::Div, 32, 4096, 16 * 1024);
        assert!(div.compute_for(Resource::Ifp).is_none());
        let xor = dev.estimate_strip(OpType::Xor, 32, 4096, 16 * 1024);
        let isp = xor.compute_for(Resource::Isp).unwrap().latency;
        let pud = xor.compute_for(Resource::PudSsd).unwrap().latency;
        // PuD is far faster than a single embedded core for bulk bitwise ops.
        assert!(pud < isp);
        // Static data-movement estimates: flash→DRAM is dominated by tR.
        let dm = xor.move_from(Resource::PudSsd, DataLocation::Flash);
        assert!(dm > Duration::from_us(22.5 * 4.0));
        assert_eq!(
            xor.move_from(Resource::Isp, DataLocation::Dram),
            Duration::ZERO
        );
    }

    #[test]
    fn host_transfer_uses_the_link_and_counts_energy() {
        let mut dev = device();
        let c = dev.host_transfer(1 << 20, SimTime::ZERO);
        assert!(c.breakdown.host_data_movement > Duration::from_us(100.0));
        assert!(dev.energy_meter().data_movement() > Energy::ZERO);
        // Back-to-back transfers serialize on the link.
        let c2 = dev.host_transfer(1 << 20, SimTime::ZERO);
        assert!(c2.ready > c.ready);
    }

    #[test]
    fn offloader_overhead_occupies_the_offloader_core() {
        let mut dev = device();
        let a = dev.offloader_busy_strip(Duration::from_us(2.0), SimTime::ZERO, 1);
        // A second strip queues behind the first on the one offloader core.
        let b = dev.offloader_busy_strip(Duration::from_us(2.0), SimTime::ZERO, 3);
        assert_eq!(
            a.first_ready.saturating_since(SimTime::ZERO),
            Duration::from_us(2.0)
        );
        assert_eq!(
            b.first_ready.saturating_since(SimTime::ZERO),
            Duration::from_us(4.0)
        );
        assert_eq!(b.step, Duration::from_us(2.0));
        assert!(b.energy_each > Energy::ZERO);
        // The queued strip's three windows end at 2 + 3 × 2 = 8 us, so the
        // next strip's single window ends at 9 us.
        let c = dev.offloader_busy_strip(Duration::from_us(1.0), SimTime::ZERO, 1);
        assert_eq!(
            c.first_ready.saturating_since(SimTime::ZERO),
            Duration::from_us(9.0)
        );
    }

    #[test]
    fn completed_ops_counts_increase() {
        let mut dev = device();
        assert_eq!(dev.snapshot().device_ops, 0);
        let add = dev.estimate_strip(OpType::Add, 32, 4096, 16 * 1024);
        dev.execute_isp(&add, SimTime::ZERO).unwrap();
        assert_eq!(dev.snapshot().device_ops, 1);
        let sub_ops = add.pud.unwrap().sub_ops as u64;
        dev.execute_pud(&add, SimTime::ZERO).unwrap();
        // One reservation per PuD sub-operation.
        assert_eq!(dev.snapshot().device_ops, 1 + sub_ops);
    }

    #[test]
    fn ssd_writes_drop_host_copies_from_the_host_queue_too() {
        // Four pages read to the host and then written in DRAM, round after
        // round. Each write supersedes the host's copy, so the page must
        // leave the host's eviction queue as well as its set: otherwise the
        // queue, and every checkpoint, grows by one entry per page per
        // round.
        let mut dev = device();
        dev.map_pages(&pages(0..4)).unwrap();
        let mut now = SimTime::ZERO;
        let mut checkpoint_bytes = Vec::new();
        for round in 1..=40 {
            for page in pages(0..4) {
                now = dev.ensure_at(page, DataLocation::Host, now).unwrap().ready;
                now = dev
                    .record_result_write(page, DataLocation::Dram, now)
                    .unwrap()
                    .ready;
            }
            if round == 8 || round == 40 {
                checkpoint_bytes.push(dev.state.to_bytes().len());
            }
        }
        assert!(dev.state.host_cache.pages().is_empty());
        assert!(dev.state.host_cache.queue().is_empty());
        let (early, late) = (checkpoint_bytes[0], checkpoint_bytes[1]);
        // 32 more rounds would add 4 × 32 queue entries of 8 bytes each.
        assert!(
            late < early + 64,
            "checkpoint grew from {early} to {late} bytes"
        );
    }

    #[test]
    fn pud_sub_ops_beyond_the_free_subarrays_run_in_waves() {
        // One bank of three subarrays; 64-bit elements split 4096 lanes
        // into four sub-operations.
        let mut cfg = SsdConfig::small_for_tests();
        cfg.dram.banks = 1;
        cfg.dram.subarrays_per_bank = 3;
        let mut dev = SsdDevice::new(&cfg).unwrap();
        let add = dev.estimate_strip(OpType::Add, 64, 4096, 32 * 1024);
        let shape = add.pud.unwrap();
        assert_eq!(shape.sub_ops, 4);
        // All three subarrays free: two waves; the fourth sub-operation
        // queues behind the first wave on subarray 0.
        let c = dev.execute_pud(&add, SimTime::ZERO).unwrap();
        let two_waves = shape.latency(2);
        assert_eq!(c.breakdown.compute, two_waves);
        assert_eq!(c.ready, SimTime::ZERO + two_waves * 2);
        assert_eq!(dev.snapshot().device_ops, 4);
        // None free at time zero now: the service is four waves long, and
        // each sub-operation queues for the earliest subarray.
        let c = dev.execute_pud(&add, SimTime::ZERO).unwrap();
        assert_eq!(c.breakdown.compute, shape.latency(1));
        assert_eq!(dev.snapshot().device_ops, 8);
    }
}
