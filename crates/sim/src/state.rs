//! Persistent device state, split out of [`crate::SsdDevice`].
//!
//! The paper's device is a long-lived SSD: FTL mappings, the coherence
//! directory, garbage-collection debt and wear accumulate across the whole
//! request stream, not per run. [`DeviceState`] is that persistent half of
//! the device — everything that *mutates* as instructions execute — while
//! [`crate::SsdDevice`] adds the immutable models (timing and energy,
//! derived purely from the [`SsdConfig`]).
//!
//! Because the models are pure functions of the configuration, a
//! `DeviceState` can be moved between [`crate::SsdDevice`] instances
//! ([`crate::SsdDevice::with_state`] / [`crate::SsdDevice::into_state`])
//! without changing simulation results: a *warm* device is just a fresh set
//! of models wrapped around an old state. [`DeviceState::snapshot`] exposes
//! the cumulative counters (GC, coherence traffic, wear, energy) and
//! [`DeviceSnapshot::delta_since`] turns two snapshots into the per-run
//! [`DeviceDelta`] that run summaries carry.

use std::collections::VecDeque;

use conduit_ftl::Ftl;
use conduit_types::bytes::{put_u16, put_u64, Reader};
use conduit_types::hash::PageSet;
use conduit_types::inst::MAX_ELEM_BITS;
use conduit_types::{
    ConduitError, DeviceHealth, Duration, Energy, FaultConfig, LogicalPageId, Result, SimTime,
    SsdConfig,
};

use crate::energy::EnergyMeter;
use crate::resources::{ResourcePool, SharedResource};
use crate::stats::LaneStats;

/// Magic bytes identifying a serialized [`DeviceState`] checkpoint:
/// delta-against-pristine flash (never-written blocks are skipped), sparse
/// resource timelines (idle channels/dies/banks cost a flag byte instead of
/// a zero triple), the fault-injection state (plan cursor, retired blocks,
/// health) and both the cumulative and the windowed request-lane
/// statistics ([`LaneStats`]).
pub const DEVICE_STATE_MAGIC: [u8; 4] = *b"CDS3";

/// Device-state checkpoint format version, the only one
/// [`DeviceState::from_bytes`] accepts.
pub const DEVICE_STATE_FORMAT_VERSION: u16 = 3;

/// Number of pages the host keeps resident before it must re-stream data
/// from the SSD (see the field documentation on [`DeviceState`]).
pub(crate) const HOST_CACHE_PAGES: usize = 8;

/// The mutable, persistent half of the simulated SSD: FTL (L2P map,
/// coherence directory, garbage collector, wear counters), flash/DRAM
/// residency, the contended-resource timelines and the energy meter.
///
/// A fresh state models a pristine device; threading one state through a
/// stream of runs models a warm, aging device.
#[derive(Debug, Clone)]
pub struct DeviceState {
    pub(crate) ftl: Ftl,
    // Contention timelines.
    pub(crate) channels: Vec<SharedResource>,
    pub(crate) dies: ResourcePool,
    pub(crate) dram_banks: ResourcePool,
    pub(crate) dram_bus: SharedResource,
    pub(crate) compute_cores: ResourcePool,
    pub(crate) offloader_core: SharedResource,
    pub(crate) pcie: SharedResource,
    // Residency of clean cached copies.
    pub(crate) dram_resident: PageSet<LogicalPageId>,
    pub(crate) dram_order: VecDeque<LogicalPageId>,
    pub(crate) dram_capacity_pages: usize,
    pub(crate) ctrl_resident: PageSet<LogicalPageId>,
    pub(crate) ctrl_order: VecDeque<LogicalPageId>,
    pub(crate) ctrl_capacity_pages: usize,
    /// Pages whose current flash contents have already been shipped to host
    /// memory (OSP baselines). The paper sizes every workload so that its
    /// footprint far exceeds what the host can cache ("the memory footprint
    /// of each workload exceeds the SSD capacity by 2×"), so only a small
    /// window of recently transferred pages stays host-resident; everything
    /// else must be re-streamed over the host link.
    pub(crate) host_resident: PageSet<LogicalPageId>,
    pub(crate) host_order: VecDeque<LogicalPageId>,
    pub(crate) energy: EnergyMeter,
    /// Request-lane statistics: how the device's FIFO lane spent its stream
    /// clock (busy serving requests vs idle between open-loop arrivals).
    pub(crate) lane: LaneStats,
    /// Windowed lane statistics: same counters as `lane`, but resettable
    /// ([`DeviceState::reset_lane_window`]) so a long-lived tenant's recent
    /// load swings are visible without wiping the device.
    pub(crate) lane_window: LaneStats,
}

/// The geometry every device constructor checks before it builds a model
/// that divides by a page or row size.
///
/// # Errors
///
/// Returns [`ConduitError::InvalidConfig`] for zero-byte flash pages, a
/// DRAM geometry without PuD compute units, or DRAM rows narrower than one
/// [`MAX_ELEM_BITS`]-bit element (a PuD sub-operation would then hold no
/// element of a valid program's widest width).
pub(crate) fn check_geometry(cfg: &SsdConfig) -> Result<()> {
    if cfg.flash.page_bytes == 0 {
        return Err(ConduitError::invalid_config("flash pages hold no bytes"));
    }
    if cfg.dram.compute_units() == 0 {
        return Err(ConduitError::invalid_config(
            "DRAM geometry has no PuD compute units",
        ));
    }
    if cfg.dram.row_bytes.saturating_mul(8) < u64::from(MAX_ELEM_BITS) {
        return Err(ConduitError::invalid_config(format!(
            "DRAM rows of {} bytes hold no {MAX_ELEM_BITS}-bit element",
            cfg.dram.row_bytes
        )));
    }
    Ok(())
}

impl DeviceState {
    /// A pristine device state for the given configuration: empty FTL, idle
    /// timelines, nothing resident, no energy charged.
    ///
    /// # Errors
    ///
    /// Returns configuration errors for zero-byte flash pages, a DRAM
    /// geometry without PuD compute units or DRAM rows narrower than one
    /// 64-bit element, and from the FTL (degenerate flash geometry) or the
    /// core allocation.
    pub fn new(cfg: &SsdConfig) -> Result<Self> {
        Self::new_with_faults(cfg, FaultConfig::default())
    }

    /// Like [`DeviceState::new`], but with a fault-injection plan attached:
    /// the FTL draws every fault decision from a seeded, replayable
    /// [`conduit_types::FaultPlan`]. The default (inert) config makes this
    /// identical to [`DeviceState::new`].
    ///
    /// # Errors
    ///
    /// Returns configuration errors from the FTL (degenerate flash
    /// geometry), a DRAM geometry without PuD compute units, or the core
    /// allocation.
    pub fn new_with_faults(cfg: &SsdConfig, faults: FaultConfig) -> Result<Self> {
        check_geometry(cfg)?;
        let ftl = Ftl::with_faults(cfg, faults)?;
        let pud_units = cfg.dram.compute_units() as usize;
        let total_dies = (cfg.flash.channels * cfg.flash.dies_per_channel) as usize;
        let compute_core_count = conduit_ctrl::CoreAllocation::standard(&cfg.ctrl)?
            .count(conduit_ctrl::CoreRole::Compute)
            .max(1);
        let dram_capacity_pages =
            (cfg.dram.capacity_bytes / 2 / cfg.flash.page_bytes).max(16) as usize;
        let ctrl_capacity_pages = (cfg.ctrl.sram_bytes / cfg.flash.page_bytes).max(4) as usize;
        Ok(DeviceState {
            ftl,
            channels: vec![SharedResource::new(); cfg.flash.channels as usize],
            dies: ResourcePool::new(total_dies),
            dram_banks: ResourcePool::new(pud_units),
            dram_bus: SharedResource::new(),
            compute_cores: ResourcePool::new(compute_core_count),
            offloader_core: SharedResource::new(),
            pcie: SharedResource::new(),
            dram_resident: PageSet::default(),
            dram_order: VecDeque::new(),
            dram_capacity_pages,
            ctrl_resident: PageSet::default(),
            ctrl_order: VecDeque::new(),
            ctrl_capacity_pages,
            host_resident: PageSet::default(),
            host_order: VecDeque::new(),
            energy: EnergyMeter::new(),
            lane: LaneStats::default(),
            lane_window: LaneStats::default(),
        })
    }

    /// The flash translation layer (read-only).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// The device's cumulative request-lane statistics.
    pub fn lane_stats(&self) -> LaneStats {
        self.lane
    }

    /// The windowed lane statistics accumulated since the last
    /// [`DeviceState::reset_lane_window`].
    pub fn lane_window_stats(&self) -> LaneStats {
        self.lane_window
    }

    /// Resets the windowed lane statistics (the cumulative [`LaneStats`] are
    /// untouched). Sessions call this at the start of every batch so
    /// per-batch load is observable on long-lived devices.
    pub fn reset_lane_window(&mut self) {
        self.lane_window = LaneStats::default();
    }

    /// Folds one served lane request into the lane statistics: `idle` is the
    /// gap the device sat unused before the request arrived, `queued` the
    /// arrival-relative wait behind earlier requests, `busy` the request's
    /// own service time on the stream clock. Both the cumulative and the
    /// windowed counters advance.
    pub fn record_lane_request(&mut self, idle: Duration, queued: Duration, busy: Duration) {
        self.lane.record(idle, queued, busy);
        self.lane_window.record(idle, queued, busy);
    }

    /// The accumulated energy meter.
    pub fn energy_meter(&self) -> &EnergyMeter {
        &self.energy
    }

    /// Total reservations served across every contended timeline (channels,
    /// dies, DRAM banks and bus, compute cores, the offloader core, PCIe).
    /// This counts *simulated device operations* and is fully deterministic —
    /// the same program stream always performs the same number — which makes
    /// it the machine-independent work metric the perf gate tracks.
    pub fn device_ops(&self) -> u64 {
        self.channels
            .iter()
            .map(SharedResource::completed)
            .sum::<u64>()
            + self.dies.completed()
            + self.dram_banks.completed()
            + self.dram_bus.completed()
            + self.compute_cores.completed()
            + self.offloader_core.completed()
            + self.pcie.completed()
    }

    /// Drops the idle gaps of every contention timeline (a run has ended;
    /// see [`crate::resources`]), returning when the last of them ended.
    pub(crate) fn clear_gaps(&mut self) -> Option<SimTime> {
        let singles = self
            .channels
            .iter_mut()
            .chain([&mut self.dram_bus, &mut self.offloader_core, &mut self.pcie])
            .filter_map(SharedResource::clear_gaps);
        let pools = [
            &mut self.dies,
            &mut self.dram_banks,
            &mut self.compute_cores,
        ]
        .into_iter()
        .filter_map(ResourcePool::clear_gaps);
        singles.chain(pools).max()
    }

    /// Cumulative counters of everything that has happened to this device
    /// since it was pristine.
    pub fn snapshot(&self) -> DeviceSnapshot {
        let stats = self.ftl.stats();
        let (writes, flushes) = self.ftl.coherence().traffic();
        let wear = self.ftl.wear_report();
        let faults = self.ftl.fault_stats();
        DeviceSnapshot {
            pages_mapped: stats.pages_mapped,
            rewrites: stats.rewrites,
            gc_invocations: self.ftl.gc().invocations(),
            gc_pages_migrated: stats.gc_relocations,
            gc_blocks_erased: stats.gc_erases,
            l2p_hits: stats.l2p_hits,
            l2p_misses: stats.l2p_misses,
            coherence_writes: writes,
            coherence_syncs: flushes,
            dirty_pages: self.ftl.coherence().dirty_pages() as u64,
            wear_leveling_swaps: self.ftl.wear().swaps_scheduled(),
            wear_pages_migrated: stats.wear_relocations,
            wear_min_erases: wear.min_erases,
            wear_max_erases: wear.max_erases,
            wear_mean_erases: wear.mean_erases,
            wear_spread: wear.spread,
            device_ops: self.device_ops(),
            total_energy: self.energy.total(),
            lane_requests: self.lane.requests,
            lane_busy_time: self.lane.busy,
            lane_idle_time: self.lane.idle,
            lane_queued_time: self.lane.queued,
            window_requests: self.lane_window.requests,
            window_busy_time: self.lane_window.busy,
            window_idle_time: self.lane_window.idle,
            window_queued_time: self.lane_window.queued,
            health: self.ftl.health(),
            retired_blocks: self.ftl.retired_blocks(),
            program_failures: faults.program_failures,
            erase_failures: faults.erase_failures,
            read_retries: faults.read_retries,
            die_failures: faults.die_failures,
            remapped_pages: faults.remapped_pages,
        }
    }

    /// Serializes the whole device state — FTL image, contention timelines,
    /// cached-copy residency, the energy meter and the lane statistics —
    /// into a compact, versioned, **deterministic** byte stream (identical
    /// states always produce identical bytes, so checkpoints can be diffed
    /// and pinned by golden files). The flash image is encoded
    /// **delta-against-pristine**: blocks that have never been written or
    /// erased are skipped entirely, so a cold device's checkpoint stays
    /// small no matter how large the array is. Restore with
    /// [`DeviceState::from_bytes`] under the same [`SsdConfig`]; everything
    /// derived from the configuration (geometry, capacities, pool sizes,
    /// models) is rebuilt rather than stored.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&DEVICE_STATE_MAGIC);
        put_u16(&mut out, DEVICE_STATE_FORMAT_VERSION);
        self.ftl.encode_into(&mut out);
        put_u64(&mut out, self.channels.len() as u64);
        for channel in &self.channels {
            channel.encode_into(&mut out);
        }
        self.dies.encode_into(&mut out);
        self.dram_banks.encode_into(&mut out);
        self.compute_cores.encode_into(&mut out);
        self.dram_bus.encode_into(&mut out);
        self.offloader_core.encode_into(&mut out);
        self.pcie.encode_into(&mut out);
        // Residency is a set plus an eviction queue, serialized separately:
        // the queue may hold stale entries (older checkpoints kept committed
        // pages in the DRAM and SRAM queues, and pages an SSD-side write
        // superseded in the host queue) and is therefore not a reliable
        // source for rebuilding the set. Sets are written sorted so the
        // encoding is deterministic; queues keep their exact order.
        for (resident, order) in [
            (&self.dram_resident, &self.dram_order),
            (&self.ctrl_resident, &self.ctrl_order),
            (&self.host_resident, &self.host_order),
        ] {
            let mut sorted: Vec<LogicalPageId> = resident.iter().copied().collect();
            sorted.sort_unstable();
            put_u64(&mut out, sorted.len() as u64);
            for page in sorted {
                put_u64(&mut out, page.index());
            }
            put_u64(&mut out, order.len() as u64);
            for page in order {
                put_u64(&mut out, page.index());
            }
        }
        self.energy.encode_into(&mut out);
        for lane in [&self.lane, &self.lane_window] {
            put_u64(&mut out, lane.requests);
            put_u64(&mut out, lane.busy.as_ps());
            put_u64(&mut out, lane.idle.as_ps());
            put_u64(&mut out, lane.queued.as_ps());
        }
        out
    }

    /// Decodes a checkpoint serialized by [`DeviceState::to_bytes`] for the
    /// given configuration. A restored state is indistinguishable from the
    /// state that was exported: replaying the same request stream on it
    /// produces bit-identical results.
    ///
    /// Only the `"CDS3"` version-3 encoding is accepted.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::CorruptCheckpoint`] for a bad magic or
    /// version, truncated or trailing bytes, or a checkpoint whose shape
    /// does not match `cfg` (block counts, pool sizes, channel counts).
    pub fn from_bytes(cfg: &SsdConfig, bytes: &[u8]) -> Result<Self> {
        if bytes.len() < 6 || bytes[..4] != DEVICE_STATE_MAGIC {
            return Err(ConduitError::corrupt_checkpoint("bad device-state magic"));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != DEVICE_STATE_FORMAT_VERSION {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "unsupported device-state format version {version} \
                 (expected {DEVICE_STATE_FORMAT_VERSION})"
            )));
        }
        let mut r = Reader::new(&bytes[6..]);
        let mut state = DeviceState::new(cfg)?;
        state.ftl = Ftl::decode_from(cfg, &mut r)?;
        let channels = r.u64()? as usize;
        if channels != state.channels.len() {
            return Err(ConduitError::corrupt_checkpoint(format!(
                "checkpoint has {channels} flash channels but the configuration describes {}",
                state.channels.len()
            )));
        }
        for channel in &mut state.channels {
            channel.restore_from(&mut r)?;
        }
        state.dies.restore_from(&mut r)?;
        state.dram_banks.restore_from(&mut r)?;
        state.compute_cores.restore_from(&mut r)?;
        state.dram_bus.restore_from(&mut r)?;
        state.offloader_core.restore_from(&mut r)?;
        state.pcie.restore_from(&mut r)?;
        for (resident, order) in [
            (&mut state.dram_resident, &mut state.dram_order),
            (&mut state.ctrl_resident, &mut state.ctrl_order),
            (&mut state.host_resident, &mut state.host_order),
        ] {
            let set_len = r.u64()? as usize;
            for _ in 0..set_len {
                let page = LogicalPageId::new(r.u64()?);
                if !resident.insert(page) {
                    return Err(ConduitError::corrupt_checkpoint(format!(
                        "page {page} appears twice in a residency set"
                    )));
                }
            }
            let order_len = r.u64()? as usize;
            for _ in 0..order_len {
                order.push_back(LogicalPageId::new(r.u64()?));
            }
            // Eviction pops the queue while the set is over capacity, so a
            // set page the queue does not hold could never leave and an
            // over-full set would spin forever. Queue entries outside the set
            // are legal (see `to_bytes`).
            let queued: PageSet<LogicalPageId> = order.iter().copied().collect();
            if let Some(page) = resident.iter().filter(|p| !queued.contains(p)).min() {
                return Err(ConduitError::corrupt_checkpoint(format!(
                    "page {page} is in a residency set but not in its eviction queue"
                )));
            }
        }
        state.energy = EnergyMeter::decode_from(&mut r)?;
        for lane in [&mut state.lane, &mut state.lane_window] {
            *lane = LaneStats {
                requests: r.counter()?,
                busy: Duration::from_ps(r.counter()?),
                idle: Duration::from_ps(r.counter()?),
                queued: Duration::from_ps(r.counter()?),
            };
        }
        if !r.finished() {
            return Err(ConduitError::corrupt_checkpoint(
                "trailing bytes after device state",
            ));
        }
        Ok(state)
    }
}

/// Cumulative device counters at one point in a device's life.
///
/// Obtained via [`DeviceState::snapshot`] (or
/// [`crate::SsdDevice::snapshot`]); two snapshots bracketing a run yield the
/// run's [`DeviceDelta`] via [`DeviceSnapshot::delta_since`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceSnapshot {
    /// Logical pages mapped for the first time.
    pub pages_mapped: u64,
    /// Out-of-place logical page rewrites (flash commits of dirty results).
    pub rewrites: u64,
    /// Garbage-collection victim selections.
    pub gc_invocations: u64,
    /// Valid pages relocated by garbage collection.
    pub gc_pages_migrated: u64,
    /// Blocks erased by garbage collection.
    pub gc_blocks_erased: u64,
    /// L2P mapping-cache hits.
    pub l2p_hits: u64,
    /// L2P mapping-cache misses.
    pub l2p_misses: u64,
    /// Writes recorded in the coherence directory.
    pub coherence_writes: u64,
    /// Dirty copies synchronized (flushed) to flash by the coherence
    /// protocol.
    pub coherence_syncs: u64,
    /// Pages currently dirty (a point-in-time gauge, not a counter).
    pub dirty_pages: u64,
    /// Cold/hot block swaps the wear leveler has scheduled.
    pub wear_leveling_swaps: u64,
    /// Valid pages migrated out of cold blocks by those swaps.
    pub wear_pages_migrated: u64,
    /// Lowest per-block erase count.
    pub wear_min_erases: u64,
    /// Highest per-block erase count.
    pub wear_max_erases: u64,
    /// Mean per-block erase count.
    pub wear_mean_erases: f64,
    /// `max - min` erase count across blocks (the imbalance the wear leveler
    /// bounds).
    pub wear_spread: u64,
    /// Total reservations served across every contended timeline (see
    /// [`DeviceState::device_ops`]).
    pub device_ops: u64,
    /// Total energy charged to the device so far.
    pub total_energy: Energy,
    /// Requests the device's FIFO lane has served.
    pub lane_requests: u64,
    /// Stream-clock time the device spent serving lane requests.
    pub lane_busy_time: Duration,
    /// Stream-clock time the device sat idle between open-loop arrivals.
    pub lane_idle_time: Duration,
    /// Total arrival-relative queueing accumulated by lane requests.
    pub lane_queued_time: Duration,
    /// Lane requests served since the window was last reset (sessions reset
    /// the window at the start of every batch).
    pub window_requests: u64,
    /// Stream-clock busy time inside the current window.
    pub window_busy_time: Duration,
    /// Stream-clock idle time inside the current window.
    pub window_idle_time: Duration,
    /// Arrival-relative queueing inside the current window.
    pub window_queued_time: Duration,
    /// The device's health state (gauge): `Degraded` once more blocks were
    /// retired than the fault plan's spare budget.
    pub health: DeviceHealth,
    /// Flash blocks retired (marked bad and evacuated) so far.
    pub retired_blocks: u64,
    /// Flash program operations that failed and were retried elsewhere.
    pub program_failures: u64,
    /// Block erases that failed, retiring the block instead.
    pub erase_failures: u64,
    /// Transient read errors recovered by the read-retry ladder.
    pub read_retries: u64,
    /// Whole-die failures injected by the fault plan.
    pub die_failures: u64,
    /// Valid pages remapped off retired blocks and dies.
    pub remapped_pages: u64,
}

impl DeviceSnapshot {
    /// Fraction of the lane's lifetime (busy + idle) the device spent
    /// serving requests; zero for a device that never served a lane
    /// request. See [`LaneStats::occupancy`].
    pub fn lane_occupancy(&self) -> f64 {
        LaneStats {
            requests: self.lane_requests,
            busy: self.lane_busy_time,
            idle: self.lane_idle_time,
            queued: self.lane_queued_time,
        }
        .occupancy()
    }

    /// Occupancy of the current lane window (see
    /// [`DeviceSnapshot::lane_occupancy`], but over the windowed counters).
    pub fn window_occupancy(&self) -> f64 {
        LaneStats {
            requests: self.window_requests,
            busy: self.window_busy_time,
            idle: self.window_idle_time,
            queued: self.window_queued_time,
        }
        .occupancy()
    }

    /// The work performed between `before` and this snapshot (counters are
    /// monotonic, so plain differences; the point-in-time gauges
    /// `dirty_pages` and `wear_spread` carry this snapshot's value).
    pub fn delta_since(&self, before: &DeviceSnapshot) -> DeviceDelta {
        DeviceDelta {
            pages_mapped: self.pages_mapped.saturating_sub(before.pages_mapped),
            rewrites: self.rewrites.saturating_sub(before.rewrites),
            gc_invocations: self.gc_invocations.saturating_sub(before.gc_invocations),
            pages_migrated: self
                .gc_pages_migrated
                .saturating_sub(before.gc_pages_migrated)
                + self
                    .wear_pages_migrated
                    .saturating_sub(before.wear_pages_migrated),
            blocks_erased: self
                .gc_blocks_erased
                .saturating_sub(before.gc_blocks_erased),
            coherence_writes: self
                .coherence_writes
                .saturating_sub(before.coherence_writes),
            coherence_syncs: self.coherence_syncs.saturating_sub(before.coherence_syncs),
            dirty_pages: self.dirty_pages,
            wear_spread: self.wear_spread,
            device_ops: self.device_ops.saturating_sub(before.device_ops),
            lane_requests: self.lane_requests.saturating_sub(before.lane_requests),
            lane_busy_time: self.lane_busy_time.saturating_sub(before.lane_busy_time),
            lane_idle_time: self.lane_idle_time.saturating_sub(before.lane_idle_time),
            lane_queued_time: self
                .lane_queued_time
                .saturating_sub(before.lane_queued_time),
            health: self.health,
            retired_blocks: self.retired_blocks.saturating_sub(before.retired_blocks),
            program_failures: self
                .program_failures
                .saturating_sub(before.program_failures),
            erase_failures: self.erase_failures.saturating_sub(before.erase_failures),
            read_retries: self.read_retries.saturating_sub(before.read_retries),
            die_failures: self.die_failures.saturating_sub(before.die_failures),
            remapped_pages: self.remapped_pages.saturating_sub(before.remapped_pages),
        }
    }
}

/// The device-side work one run performed: the difference between the
/// device snapshots taken before and after the run.
///
/// On a fresh device this is the run's absolute footprint; on a warm device
/// it shows how much *additional* aging (GC, migration, coherence syncs,
/// wear) this run caused on top of the state earlier requests left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceDelta {
    /// Logical pages mapped for the first time by this run.
    pub pages_mapped: u64,
    /// Out-of-place page rewrites this run performed.
    pub rewrites: u64,
    /// Garbage-collection invocations this run triggered.
    pub gc_invocations: u64,
    /// Valid pages migrated during this run, by garbage collection and by
    /// wear-leveling swaps.
    pub pages_migrated: u64,
    /// Blocks garbage collection erased during this run.
    pub blocks_erased: u64,
    /// Coherence-directory writes this run recorded.
    pub coherence_writes: u64,
    /// Dirty copies the coherence protocol flushed to flash during this run.
    pub coherence_syncs: u64,
    /// Pages left dirty when the run finished (gauge: the value *after* the
    /// run, not a difference).
    pub dirty_pages: u64,
    /// Erase-count spread across blocks when the run finished (gauge).
    pub wear_spread: u64,
    /// Simulated device operations (timeline reservations) this run issued.
    pub device_ops: u64,
    /// Lane requests this run accounted for (1 for a warm run, 0 for a
    /// fresh run — fresh devices have no lane).
    pub lane_requests: u64,
    /// Stream-clock time the device spent serving this run.
    pub lane_busy_time: Duration,
    /// Idle gap the device sat unused before this run's open-loop arrival.
    pub lane_idle_time: Duration,
    /// Arrival-relative queueing this run experienced in its lane.
    pub lane_queued_time: Duration,
    /// The device's health state *after* the run (gauge).
    pub health: DeviceHealth,
    /// Flash blocks this run's faults retired.
    pub retired_blocks: u64,
    /// Program failures injected during this run.
    pub program_failures: u64,
    /// Erase failures injected during this run.
    pub erase_failures: u64,
    /// Transient read errors this run's reads recovered from.
    pub read_retries: u64,
    /// Whole-die failures injected during this run.
    pub die_failures: u64,
    /// Valid pages remapped off retired blocks during this run.
    pub remapped_pages: u64,
}

impl DeviceDelta {
    /// Whether the run performed any tracked device work at all.
    pub fn is_empty(&self) -> bool {
        *self == DeviceDelta::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state_snapshot_is_all_zero() {
        let state = DeviceState::new(&SsdConfig::small_for_tests()).unwrap();
        let snap = state.snapshot();
        assert_eq!(snap, DeviceSnapshot::default());
        assert_eq!(
            snap.delta_since(&DeviceSnapshot::default()),
            DeviceDelta::default()
        );
        assert!(snap.delta_since(&DeviceSnapshot::default()).is_empty());
    }

    #[test]
    fn snapshot_tracks_ftl_activity() {
        let mut state = DeviceState::new(&SsdConfig::small_for_tests()).unwrap();
        let pages: Vec<LogicalPageId> = (0..4).map(LogicalPageId::new).collect();
        state.ftl.map_pages(&pages).unwrap();
        let before = state.snapshot();
        assert_eq!(before.pages_mapped, 4);
        state.ftl.rewrite(pages[0]).unwrap();
        let after = state.snapshot();
        let delta = after.delta_since(&before);
        assert_eq!(delta.rewrites, 1);
        assert_eq!(delta.pages_mapped, 1); // the rewrite re-installs a mapping
        assert!(!delta.is_empty());
    }

    #[test]
    fn checkpoint_roundtrips_and_is_deterministic() {
        let cfg = SsdConfig::small_for_tests();
        let mut state = DeviceState::new(&cfg).unwrap();
        let pages: Vec<LogicalPageId> = (0..6).map(LogicalPageId::new).collect();
        state.ftl.map_pages(&pages).unwrap();
        state.ftl.rewrite(pages[1]).unwrap();
        state
            .ftl
            .coherence_mut()
            .record_write(pages[2], conduit_types::DataLocation::Dram);
        state.dram_resident.insert(pages[0]);
        state.dram_order.push_back(pages[0]);
        state.dram_bus.reserve(
            conduit_types::SimTime::ZERO,
            conduit_types::Duration::from_us(3.0),
        );
        state
            .energy
            .charge(conduit_types::EnergySource::DramBus, Energy::from_nj(2.5));

        let bytes = state.to_bytes();
        let back = DeviceState::from_bytes(&cfg, &bytes).unwrap();
        assert_eq!(back.snapshot(), state.snapshot());
        assert_eq!(back.dram_resident, state.dram_resident);
        assert_eq!(back.dram_order, state.dram_order);
        assert_eq!(back.to_bytes(), bytes, "encoding must be deterministic");

        // Corruption and config mismatches are rejected.
        assert!(DeviceState::from_bytes(&cfg, &bytes[..bytes.len() - 2]).is_err());
        let mut flipped = bytes.clone();
        flipped[0] = b'X';
        assert!(DeviceState::from_bytes(&cfg, &flipped).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(DeviceState::from_bytes(&cfg, &trailing).is_err());
        let mut other = cfg.clone();
        other.flash.channels *= 2;
        assert!(DeviceState::from_bytes(&other, &state.to_bytes()).is_err());
    }

    #[test]
    fn retired_device_state_versions_are_corrupt() {
        // Only CDS3 version 3 decodes: an image relabelled with the retired
        // CDS1 or CDS2 magic and version, or with any other version, is a
        // typed error before any field is parsed.
        let cfg = SsdConfig::small_for_tests();
        let bytes = DeviceState::new(&cfg).unwrap().to_bytes();
        for (magic, version) in [
            (*b"CDS1", 1u16),
            (*b"CDS2", 2),
            (*b"CDS1", 3),
            (*b"CDS3", 1),
            (*b"CDS3", 2),
            (*b"CDS3", 4),
        ] {
            let mut relabelled = bytes.clone();
            relabelled[..4].copy_from_slice(&magic);
            relabelled[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    DeviceState::from_bytes(&cfg, &relabelled),
                    Err(ConduitError::CorruptCheckpoint { .. })
                ),
                "{} version {version} must not decode",
                String::from_utf8_lossy(&magic)
            );
        }
    }

    #[test]
    fn residency_set_pages_missing_from_their_queue_are_corrupt() {
        // One page more than each set's capacity and an empty eviction
        // queue: the next eviction from that set would never find a victim.
        let cfg = SsdConfig::small_for_tests();
        let pristine = DeviceState::new(&cfg).unwrap();
        let capacities = [
            pristine.dram_capacity_pages,
            pristine.ctrl_capacity_pages,
            HOST_CACHE_PAGES,
        ];
        for (set, capacity) in capacities.into_iter().enumerate() {
            let mut state = DeviceState::new(&cfg).unwrap();
            let resident = match set {
                0 => &mut state.dram_resident,
                1 => &mut state.ctrl_resident,
                _ => &mut state.host_resident,
            };
            resident.extend((0..=capacity as u64).map(LogicalPageId::new));
            assert!(
                matches!(
                    DeviceState::from_bytes(&cfg, &state.to_bytes()),
                    Err(ConduitError::CorruptCheckpoint { .. })
                ),
                "set {set}: {} pages and an empty queue must not decode",
                capacity + 1
            );
        }
        // Queue entries outside the set, which older checkpoints hold, still
        // decode.
        let mut stale = DeviceState::new(&cfg).unwrap();
        stale.host_order.extend((0..3).map(LogicalPageId::new));
        stale.host_resident.insert(LogicalPageId::new(1));
        let back = DeviceState::from_bytes(&cfg, &stale.to_bytes()).unwrap();
        assert_eq!(back.host_order, stale.host_order);
    }

    #[test]
    fn lane_window_resets_without_touching_cumulative_stats() {
        let mut state = DeviceState::new(&SsdConfig::small_for_tests()).unwrap();
        let us = |v: f64| Duration::from_us(v);
        state.record_lane_request(us(1.0), us(2.0), us(3.0));
        state.record_lane_request(us(0.0), us(0.0), us(5.0));
        assert_eq!(state.lane_window_stats(), state.lane_stats());
        state.reset_lane_window();
        assert_eq!(state.lane_window_stats(), LaneStats::default());
        assert_eq!(state.lane_stats().requests, 2);
        state.record_lane_request(us(7.0), us(0.0), us(1.0));
        let snap = state.snapshot();
        assert_eq!(snap.lane_requests, 3);
        assert_eq!(snap.window_requests, 1);
        assert_eq!(snap.window_idle_time, us(7.0));
        assert!(snap.window_occupancy() < snap.lane_occupancy());
    }

    #[test]
    fn faulty_state_checkpoint_roundtrips_bit_identically() {
        let cfg = SsdConfig::small_for_tests();
        let mut faults = conduit_types::FaultConfig::with_seed(17);
        faults.program_fail_rate = 0.05;
        faults.read_transient_rate = 0.1;
        faults.spare_blocks = 1_000;
        let mut state = DeviceState::new_with_faults(&cfg, faults).unwrap();
        let pages: Vec<LogicalPageId> = (0..8).map(LogicalPageId::new).collect();
        state.ftl.map_pages(&pages).unwrap();
        for _ in 0..120 {
            state.ftl.rewrite(pages[2]).unwrap();
        }
        assert!(state.ftl.fault_stats().program_failures > 0);
        let bytes = state.to_bytes();
        let back = DeviceState::from_bytes(&cfg, &bytes).unwrap();
        assert_eq!(back.snapshot(), state.snapshot());
        assert_eq!(back.to_bytes(), bytes);
        let snap = back.snapshot();
        assert!(snap.program_failures > 0);
        assert_eq!(snap.retired_blocks, state.ftl.retired_blocks());
    }

    #[test]
    fn cold_checkpoints_skip_idle_resource_timelines() {
        // A device that has done nothing serializes with every timeline as a
        // one-byte flag; touching a single resource grows the checkpoint by
        // only that unit's triple.
        let cfg = SsdConfig::small_for_tests();
        let cold = DeviceState::new(&cfg).unwrap();
        let cold_len = cold.to_bytes().len();
        let mut touched = DeviceState::new(&cfg).unwrap();
        touched.dram_bus.reserve(
            conduit_types::SimTime::ZERO,
            conduit_types::Duration::from_us(1.0),
        );
        let touched_len = touched.to_bytes().len();
        assert_eq!(touched_len, cold_len + 24);
        let back = DeviceState::from_bytes(&cfg, &touched.to_bytes()).unwrap();
        assert_eq!(back.snapshot(), touched.snapshot());
    }
}
