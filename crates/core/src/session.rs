//! The service-level execution API: [`Session`], [`RunRequest`],
//! [`RunSummary`].
//!
//! The runtime engine ([`crate::RuntimeEngine`]) simulates one program on one
//! device; a *server* wants to compile (vectorize) a program once and then
//! execute it under many policies, configurations and request streams. This
//! module is that server surface:
//!
//! * a [`Session`] owns the device/host configuration, a persistent
//!   **program registry**, a lazily-started work-stealing thread pool, and a
//!   **pool of named warm devices**;
//! * programs are registered once ([`Session::register`] →
//!   [`ProgramId`]) and can be persisted across processes via the compact
//!   registry serialization ([`Session::export_registry`] /
//!   [`Session::import_registry`]), so vectorizer output is never recomputed;
//! * a [`RunRequest`] is a cheap, cloneable description of one run: policy,
//!   cost-function ablation, repeat count, *collection flags* (timeline
//!   on/off, percentile set, energy split), and the device it runs on;
//! * results are split into an always-cheap [`RunSummary`] (times, energy,
//!   offload mix, histogram-backed latency percentiles — constant memory)
//!   and opt-in [`RunArtifacts`] (the full per-instruction timeline);
//! * **fresh** runs (the default) each simulate on a pristine device, so
//!   [`Session::submit_batch`] fans them out across the pool with results
//!   **bit-identical** to running them serially. When one batch, or one
//!   request's repeats, runs a registered program fresh more than once, the
//!   first run builds and prepares the device and the others clone it: each
//!   gets exactly the device it would have built. That prepared device
//!   belongs to the batch: the program's last run takes it, and whatever is
//!   left is dropped when the batch returns;
//! * **warm** runs target a named device from the session's pool
//!   ([`Session::create_device`] → [`DeviceHandle`],
//!   [`RunRequest::on_device`]): each device's persistent
//!   [`conduit_sim::DeviceState`] (FTL mappings, coherence directory, GC
//!   debt, wear) ages across its request stream. In a batch, each device is
//!   a **FIFO lane** — serial within the device, parallel across devices
//!   and alongside the fresh fan-out — and outcomes stay bit-identical to a
//!   fully serial submission of the same batch. On the thread pool, lane
//!   tasks run in the pool's reserved **lane class**
//!   ([`crate::pool::JobClass`]), so a ready lane task never waits behind
//!   the queued fresh backlog;
//! * requests can arrive **open-loop**: [`RunRequest::arriving_at`] places
//!   a request's arrival on the batch timeline, the device's stream clock
//!   advances to `max(previous finish, arrival)`, and
//!   [`RunSummary::queueing_time`] (arrival-relative waiting behind earlier
//!   requests in the lane) is separated from [`RunSummary::service_time`]
//!   (the run's own execution). The default arrival — the instant the batch
//!   is submitted — preserves closed-loop semantics: request *i* issues at
//!   request *i−1*'s finish time;
//! * device aging is **checkpointable**: [`Session::export_device`]
//!   serializes a device (stream clock + complete
//!   [`conduit_sim::DeviceState`]) into a compact versioned byte stream and
//!   [`Session::import_device`] revives it — in the same session or another
//!   process — with bit-identical replay.
//!
//! # Examples
//!
//! ```
//! use conduit::{Policy, RunRequest, Session};
//! use conduit_types::{OpType, Operand, SsdConfig, VectorProgram};
//!
//! let mut prog = VectorProgram::new("demo");
//! let x = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
//! prog.push_binary(OpType::Add, Operand::result(x), Operand::page(0));
//!
//! let mut session = Session::builder(SsdConfig::small_for_tests()).build();
//! let id = session.register(prog)?;
//!
//! let outcome = session.submit(&RunRequest::new(id, Policy::Conduit))?;
//! assert_eq!(outcome.summary.instructions, 2);
//! assert!(outcome.artifacts.is_none()); // timelines are opt-in
//!
//! // A pool of named warm devices, one per tenant: each ages independently.
//! let tenant_a = session.create_device("tenant-a");
//! let tenant_b = session.create_device("tenant-b");
//! let batch = session.submit_batch(&[
//!     RunRequest::new(id, Policy::Conduit).on_device(tenant_a),
//!     RunRequest::new(id, Policy::Conduit).on_device(tenant_b),
//!     RunRequest::new(id, Policy::HostCpu).on_device(tenant_a),
//!     RunRequest::new(id, Policy::Ideal), // fresh, fans out alongside
//! ])?;
//! // Lane scheduling: tenant-a's two requests ran serially (the second
//! // queued behind the first on the stream clock); tenant-b ran in
//! // parallel on its own device.
//! assert!(batch[2].summary.queueing_time > conduit_types::Duration::ZERO);
//! assert_eq!(batch[1].summary.queueing_time, conduit_types::Duration::ZERO);
//!
//! // Device-aging checkpoints persist across processes.
//! let bytes = session.export_device(tenant_a)?;
//! let mut other = Session::builder(SsdConfig::small_for_tests()).build();
//! let revived = other.import_device("tenant-a", &bytes)?;
//! assert_eq!(
//!     other.device_snapshot(revived),
//!     session.device_snapshot(tenant_a)
//! );
//! # Ok::<(), conduit_types::ConduitError>(())
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex, OnceLock};

use conduit_sim::{DeviceSnapshot, SsdDevice};
use conduit_types::{
    ConduitError, Duration, FaultConfig, HostConfig, Result, SimTime, SsdConfig, VectorProgram,
};

use crate::batch::StripPlan;
use crate::cost::CostFunction;
use crate::engine::{RunOptions, RuntimeEngine};
use crate::policy::Policy;
use crate::pool::ThreadPool;

mod checkpoint;
mod lanes;
mod registry;
mod summary;

pub use checkpoint::{DEVICE_CHECKPOINT_FORMAT_VERSION, DEVICE_CHECKPOINT_MAGIC};
pub use lanes::{DeviceHandle, DEFAULT_DRR_QUANTUM};
pub use registry::{ProgramId, ProgramRegistry, REGISTRY_FORMAT_VERSION, REGISTRY_MAGIC};
pub use summary::{RunArtifacts, RunOutcome, RunSummary};

use lanes::{
    execute_fresh, execute_on_lane, run_lane, share_prepared, BatchState, DeviceCounts, DeviceSlot,
    PlanMode, RunPlan,
};

/// The percentile set collected when a request does not override it.
pub const DEFAULT_PERCENTILES: [f64; 3] = [0.50, 0.99, 0.9999];

/// Where a [`RunRequest`]'s program comes from.
#[derive(Debug, Clone, PartialEq)]
enum ProgramSource {
    /// A program registered in the session's registry (the normal, reusable
    /// path).
    Registered(ProgramId),
    /// A one-shot program carried by the request itself (throwaway
    /// experiments that never reuse the program).
    Inline(Arc<VectorProgram>),
}

/// A declarative description of one run: which program, which policy, which
/// device, when it arrives, and what to collect. Cheap to clone; built
/// builder-style.
///
/// Subsumes the engine-level [`RunOptions`]: policy, cost-function ablation
/// and overhead charging map straight through, while the collection flags
/// control how much the result carries — summaries are always cheap,
/// timelines ([`RunArtifacts`]) are opt-in.
///
/// # Examples
///
/// ```
/// use conduit::{Policy, RunRequest, Session};
/// use conduit_types::{OpType, Operand, SsdConfig, VectorProgram};
///
/// let mut prog = VectorProgram::new("r");
/// prog.push_binary(OpType::And, Operand::page(0), Operand::page(4));
/// let mut session = Session::builder(SsdConfig::small_for_tests()).build();
/// let id = session.register(prog)?;
///
/// let request = RunRequest::new(id, Policy::Conduit)
///     .repeat(3)
///     .percentiles(&[0.5, 0.999])
///     .with_timeline();
/// let outcome = session.submit(&request)?;
/// assert_eq!(outcome.summary.repeats, 3);
/// assert_eq!(outcome.summary.percentiles.len(), 2);
/// # Ok::<(), conduit_types::ConduitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    source: ProgramSource,
    policy: Policy,
    cost_function: CostFunction,
    charge_overheads: bool,
    repeats: u32,
    collect_timeline: bool,
    collect_energy_split: bool,
    percentiles: Vec<f64>,
    /// `None` runs fresh (a pristine device per run/repeat); `Some` targets
    /// a pooled warm device.
    device: Option<DeviceHandle>,
    /// The request's arrival on the batch timeline ([`SimTime::ZERO`] = the
    /// instant the batch is submitted, i.e. closed-loop).
    arrival: SimTime,
    /// Weighted-fair-queueing flow this request belongs to (see
    /// [`RunRequest::weighted`]). Requests on one device lane with the same
    /// flow id form one FIFO sub-queue of that lane's scheduler.
    flow: u32,
    /// The flow's scheduling weight. Lanes whose requests all carry the same
    /// weight serve in plain arrival/request-order FIFO; mixed weights turn
    /// the lane into a deficit-round-robin scheduler.
    weight: u32,
}

impl RunRequest {
    /// A request to run a registered program under `policy` with default
    /// collection: no timeline, energy split on, the
    /// [`DEFAULT_PERCENTILES`] set.
    pub fn new(program: ProgramId, policy: Policy) -> Self {
        Self::with_source(ProgramSource::Registered(program), policy)
    }

    /// A request carrying a one-shot program that is not (and will not be)
    /// registered. Accepts an owned program or an `Arc` (so several requests
    /// can share one program without copying it). Prefer
    /// [`Session::register`] + [`RunRequest::new`] when the program runs
    /// more than once.
    pub fn inline(program: impl Into<Arc<VectorProgram>>, policy: Policy) -> Self {
        Self::with_source(ProgramSource::Inline(program.into()), policy)
    }

    fn with_source(source: ProgramSource, policy: Policy) -> Self {
        RunRequest {
            source,
            policy,
            cost_function: CostFunction::conduit(),
            charge_overheads: true,
            repeats: 1,
            collect_timeline: false,
            collect_energy_split: true,
            percentiles: DEFAULT_PERCENTILES.to_vec(),
            device: None,
            arrival: SimTime::ZERO,
            flow: 0,
            weight: 1,
        }
    }

    /// Builder-style: replaces the cost function (for ablations).
    pub fn cost_function(mut self, cf: CostFunction) -> Self {
        self.cost_function = cf;
        self
    }

    /// Builder-style: disables the offloader overhead charges (§4.5).
    pub fn without_overheads(mut self) -> Self {
        self.charge_overheads = false;
        self
    }

    /// Builder-style: simulates the program `repeats` times (clamped to at
    /// least one). On a fresh device every repeat gets its own pristine
    /// device, so repeats are bit-identical under the deterministic
    /// simulator — the knob exists for throughput measurement and soak-style
    /// stress. On a warm device the repeats run back to back on the
    /// device's stream clock, so each one ages it further.
    pub fn repeat(mut self, repeats: u32) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Builder-style: runs this request on a named warm device from the
    /// session's pool ([`Session::create_device`]). Requests on the same
    /// device execute serially in request order (a FIFO lane); requests on
    /// different devices execute in parallel in a batch.
    pub fn on_device(mut self, device: DeviceHandle) -> Self {
        self.device = Some(device);
        self
    }

    /// Builder-style: the request **arrives open-loop** at `arrival` on the
    /// batch timeline — time zero is the instant the batch is submitted
    /// (for a warm lane, the device's stream clock at submission; for a
    /// fresh run, the engine's time origin).
    ///
    /// On a warm device the request issues at `max(previous finish,
    /// arrival)`: arriving while the lane is still serving earlier requests
    /// accrues arrival-relative [`RunSummary::queueing_time`], arriving
    /// after the lane drained leaves the device idle for the gap (visible
    /// in [`conduit_sim::DeviceSnapshot::lane_idle_time`]). The default —
    /// `SimTime::ZERO` — reproduces closed-loop semantics: every request is
    /// already waiting when the batch starts.
    ///
    /// On a fresh run the arrival is a pure translation of the timeline
    /// (service time, energy and placement are unchanged) and queueing
    /// stays zero: there is no lane to wait in.
    pub fn arriving_at(mut self, arrival: SimTime) -> Self {
        self.arrival = arrival;
        self
    }

    /// Builder-style: assigns the request to weighted-fair **flow** `flow`
    /// with scheduling weight `weight` (clamped to at least one).
    ///
    /// Within a device lane in [`Session::submit_batch`], requests sharing a
    /// flow id form one FIFO sub-queue. While every request on the lane
    /// carries the *same* weight (the default is weight 1), the lane is the
    /// plain FIFO it has always been — bit-identical to pre-flow scheduling.
    /// As soon as weights differ, the lane serves its sub-queues by **deficit
    /// round robin**: each round every backlogged flow's credit grows by
    /// `quantum × weight` ([`SessionBuilder::drr_quantum`]) and a flow serves
    /// requests while its credit lasts, with the *actual* simulated service
    /// time charged against it. Over a saturated stretch each flow's lane
    /// busy-time share converges to its weight share.
    pub fn weighted(mut self, flow: u32, weight: u32) -> Self {
        self.flow = flow;
        self.weight = weight.max(1);
        self
    }

    /// Builder-style: sets whether the full instruction → resource timeline
    /// is collected into [`RunArtifacts`] (default: off).
    pub fn timeline(mut self, collect: bool) -> Self {
        self.collect_timeline = collect;
        self
    }

    /// Builder-style sugar for [`RunRequest::timeline`]`(true)`.
    pub fn with_timeline(self) -> Self {
        self.timeline(true)
    }

    /// Builder-style: sets whether the summary carries the data-movement /
    /// compute energy split in addition to the total (default: on).
    pub fn energy_split(mut self, collect: bool) -> Self {
        self.collect_energy_split = collect;
        self
    }

    /// Builder-style: replaces the percentile set materialized into
    /// [`RunSummary::percentiles`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any value is outside `[0, 1]`.
    pub fn percentiles(mut self, set: &[f64]) -> Self {
        debug_assert!(
            set.iter().all(|p| (0.0..=1.0).contains(p)),
            "percentiles must be in [0, 1]"
        );
        self.percentiles = set.to_vec();
        self
    }

    /// The policy this request runs under.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Number of repeats.
    pub fn repeats(&self) -> u32 {
        self.repeats
    }

    /// Whether the timeline will be collected.
    pub fn collects_timeline(&self) -> bool {
        self.collect_timeline
    }

    /// The named device this request targets; `None` means a fresh run.
    pub fn requested_device(&self) -> Option<DeviceHandle> {
        self.device
    }

    /// The request's arrival on the batch timeline (see
    /// [`RunRequest::arriving_at`]).
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// The weighted-fair flow this request belongs to (see
    /// [`RunRequest::weighted`]; default flow 0).
    pub fn flow(&self) -> u32 {
        self.flow
    }

    /// The flow's scheduling weight (see [`RunRequest::weighted`]; default
    /// 1).
    pub fn weight(&self) -> u32 {
        self.weight
    }

    /// The engine-level options this request maps to.
    fn run_options(&self) -> RunOptions {
        let mut options = RunOptions::new(self.policy).cost_function(self.cost_function);
        if !self.charge_overheads {
            options = options.without_overheads();
        }
        if !self.collect_timeline {
            options = options.without_timeline();
        }
        options
    }
}

/// Configures and builds a [`Session`].
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    ssd: SsdConfig,
    host: HostConfig,
    faults: FaultConfig,
    workers: Option<usize>,
    parallel: bool,
    drr_quantum: Duration,
}

impl SessionBuilder {
    /// Starts a builder for the given SSD configuration (default host
    /// configuration, one batch worker per CPU core, fresh devices, no
    /// fault injection).
    pub fn new(ssd: SsdConfig) -> Self {
        SessionBuilder {
            ssd,
            host: HostConfig::default(),
            faults: FaultConfig::default(),
            workers: None,
            parallel: true,
            drr_quantum: DEFAULT_DRR_QUANTUM,
        }
    }

    /// Replaces the host configuration.
    pub fn host(mut self, host: HostConfig) -> Self {
        self.host = host;
        self
    }

    /// Sets the session's default fault-injection plan: every fresh run and
    /// every device created without an explicit plan
    /// ([`Session::create_device_with_faults`]) draws its faults from this
    /// seeded, replayable configuration. The default is inert (no faults),
    /// which is bit-identical to a session without fault support.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the batch worker-thread count (default: one per available
    /// CPU core; clamped to at least one).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Disables the batch fan-out: [`Session::submit_batch`] runs requests
    /// one at a time on the calling thread. Results are bit-identical either
    /// way; the serial path exists for comparison and debugging.
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Overrides the deficit-round-robin quantum of weighted device lanes
    /// (default [`DEFAULT_DRR_QUANTUM`]; clamped to at least one
    /// picosecond). Only mixed-weight lanes consult it — see
    /// [`RunRequest::weighted`].
    pub fn drr_quantum(mut self, quantum: Duration) -> Self {
        self.drr_quantum = Duration::from_ps(quantum.as_ps().max(1));
        self
    }

    /// Builds the session. The thread pool starts lazily on the first
    /// parallel batch, so summary-only sessions never spawn threads.
    pub fn build(self) -> Session {
        let workers = if self.parallel {
            self.workers.unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
        } else {
            1
        };
        Session {
            ssd: self.ssd,
            host: self.host,
            faults: self.faults,
            workers,
            drr_quantum: self.drr_quantum,
            registry: ProgramRegistry::new(),
            pool: OnceLock::new(),
            devices: Vec::new(),
            engine: OnceLock::new(),
            plan_cache: Mutex::new(HashMap::new()),
            plan_cache_hits: AtomicU64::new(0),
            plan_cache_misses: AtomicU64::new(0),
            plan_cache_inline: AtomicU64::new(0),
            device_counts: Arc::new(DeviceCounts::default()),
        }
    }
}

/// A long-lived execution service: device/host configuration, the program
/// registry, a work-stealing pool for batch fan-out, and a **pool of named
/// warm devices**.
///
/// Fresh runs execute on a pristine simulated device, so they are
/// independent, deterministic, and identical whether submitted one at a
/// time or batched across threads. Warm runs target a device from the pool
/// ([`Session::create_device`], [`RunRequest::on_device`]); each device's
/// persistent [`conduit_sim::DeviceState`] ages across its request stream,
/// modelling one tenant's long-lived SSD.
///
/// # Lane scheduling and the stream clock
///
/// In [`Session::submit_batch`], every device forms a **FIFO lane**:
/// requests targeting the same device run serially in request order (they
/// share that device's mutable state), while different devices' lanes — and
/// the fresh-request fan-out — proceed in parallel on the thread pool.
/// Outcomes are bit-identical to submitting the same batch serially.
///
/// Each device carries an explicit **stream clock**. By default requests are
/// closed-loop — request *i* issues at request *i−1*'s finish time — while
/// [`RunRequest::arriving_at`] turns the stream open-loop: the clock
/// advances to `max(previous finish, arrival)`, so the device can sit idle
/// between arrivals. [`RunSummary::queueing_time`] reports how long a
/// request waited in its lane between its arrival and its first issue, and
/// [`RunSummary::service_time`] its own execution time; `total_time` is
/// their sum. Cumulative per-device state is available via
/// [`Session::device_snapshot`] and resettable via
/// [`Session::reset_device`], and whole devices can be checkpointed across
/// processes with [`Session::export_device`] /
/// [`Session::import_device`]. See the [crate documentation](crate) for an
/// end-to-end example.
#[derive(Debug)]
pub struct Session {
    ssd: SsdConfig,
    host: HostConfig,
    /// Default fault-injection plan for fresh runs and new devices.
    faults: FaultConfig,
    workers: usize,
    /// Per-round credit unit of mixed-weight (deficit-round-robin) lanes.
    drr_quantum: Duration,
    registry: ProgramRegistry,
    pool: OnceLock<ThreadPool>,
    /// The warm-device pool, minted by [`Session::create_device`] /
    /// [`Session::import_device`]. Behind `Arc` so batch lane tasks can
    /// run on the thread pool without borrowing the session.
    devices: Vec<Arc<DeviceSlot>>,
    /// The engine is stateless and a pure function of the configs; built
    /// once on first use.
    engine: OnceLock<RuntimeEngine>,
    /// Strip plans for registered programs, keyed by (program, policy,
    /// cost-function) so each program is planned once per configuration,
    /// not once per run. The registry is append-only and content-addressed,
    /// so cached plans never need invalidation.
    plan_cache: Mutex<HashMap<(ProgramId, Policy, CostFunction), Arc<StripPlan>>>,
    /// Plan-cache hit counter (see [`Session::plan_cache_stats`]).
    plan_cache_hits: AtomicU64,
    /// Plan-cache miss counter: cold (program, policy, cost-function) keys
    /// that had to run the strip-mining planner.
    plan_cache_misses: AtomicU64,
    /// Inline-program runs that bypass the cache entirely (one-shot
    /// [`RunRequest::inline`] programs plan on the fly in the engine).
    plan_cache_inline: AtomicU64,
    /// How fresh runs got their prepared devices: built, or cloned from
    /// their batch's shared one. Behind `Arc` so pool workers count too.
    device_counts: Arc<DeviceCounts>,
}

/// A point-in-time snapshot of a session's strip-plan cache counters
/// ([`Session::plan_cache_stats`]). `hits + misses` equals the number of
/// registered-program runs planned so far; `inline` counts one-shot
/// [`RunRequest::inline`] runs that never touch the cache.
///
/// The prepared-device counters cover fresh runs, one per repeat: each run
/// either built and prepared its device or got a copy of the one its batch
/// prepared for the program, so `prepared_builds + prepared_clones` is the
/// number of fresh runs whose device was ready. A batch that runs one
/// registered program fresh `n` times adds one build and `n - 1` clones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to run the strip-mining planner.
    pub misses: u64,
    /// Runs of unregistered (inline) programs that bypass the cache.
    pub inline: u64,
    /// Fresh runs that built and prepared their own device.
    pub prepared_builds: u64,
    /// Fresh runs that got a copy of their batch's prepared device instead
    /// of building one (the last such run takes the batch's own copy).
    pub prepared_clones: u64,
}

impl PlanCacheStats {
    /// Fraction of cacheable lookups that hit (0 when none happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Session {
    /// Starts a [`SessionBuilder`] for the given SSD configuration.
    pub fn builder(ssd: SsdConfig) -> SessionBuilder {
        SessionBuilder::new(ssd)
    }

    /// A session with all defaults for the given SSD configuration.
    pub fn new(ssd: SsdConfig) -> Session {
        SessionBuilder::new(ssd).build()
    }

    /// The SSD configuration every run uses.
    pub fn ssd_config(&self) -> &SsdConfig {
        &self.ssd
    }

    /// The host configuration every run uses.
    pub fn host_config(&self) -> &HostConfig {
        &self.host
    }

    /// Number of worker threads batches fan out over (1 = serial).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Validates and registers a program for reuse across runs.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] for structurally invalid
    /// programs.
    pub fn register(&mut self, program: VectorProgram) -> Result<ProgramId> {
        self.registry.register(program)
    }

    /// The program behind a handle, if registered.
    pub fn program(&self, id: ProgramId) -> Option<&VectorProgram> {
        self.registry.get(id).map(Arc::as_ref)
    }

    /// The program registry.
    pub fn registry(&self) -> &ProgramRegistry {
        &self.registry
    }

    /// Serializes the whole registry so another process can
    /// [`Session::import_registry`] it instead of re-running the vectorizer.
    pub fn export_registry(&self) -> Vec<u8> {
        self.registry.to_bytes()
    }

    /// Merges every program from a serialized registry into this session's
    /// registry, returning the assigned ids in the same order. Content
    /// addressing applies: a program identical to one already registered
    /// maps to the existing id instead of being stored again.
    ///
    /// # Errors
    ///
    /// Returns [`ConduitError::InvalidProgram`] for corrupt bytes; on error
    /// the session's registry is left unchanged.
    pub fn import_registry(&mut self, bytes: &[u8]) -> Result<Vec<ProgramId>> {
        let imported = ProgramRegistry::from_bytes(bytes)?;
        Ok(imported
            .programs
            .into_iter()
            .map(|program| self.registry.insert_deduped(program))
            .collect())
    }

    // ------------------------------------------------------------------
    // The device pool
    // ------------------------------------------------------------------

    /// Creates (or finds) a named warm device in the session's pool and
    /// returns its handle. Device creation is idempotent: asking for an
    /// existing name returns the existing device's handle, so tenants can
    /// be addressed by name without extra bookkeeping. The simulated device
    /// itself is built lazily on first use.
    pub fn create_device(&mut self, name: &str) -> DeviceHandle {
        self.create_device_with_faults(name, self.faults)
    }

    /// Like [`Session::create_device`], but with an explicit per-device
    /// fault-injection plan instead of the session default
    /// ([`SessionBuilder::faults`]). For an existing name the existing
    /// device (and its original plan) is returned unchanged — a device's
    /// fault plan is fixed for its lifetime so its stream stays replayable.
    pub fn create_device_with_faults(&mut self, name: &str, faults: FaultConfig) -> DeviceHandle {
        if let Some(existing) = self.find_device(name) {
            return existing;
        }
        let handle = DeviceHandle(self.devices.len() as u32);
        self.devices.push(Arc::new(DeviceSlot::new(name, faults)));
        handle
    }

    /// The handle of the named device, if it exists.
    pub fn find_device(&self, name: &str) -> Option<DeviceHandle> {
        self.devices
            .iter()
            .position(|slot| slot.name == name)
            .map(|i| DeviceHandle(i as u32))
    }

    /// Iterator over every device in the pool, `(handle, name)`, in
    /// creation order.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceHandle, &str)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, slot)| (DeviceHandle(i as u32), slot.name.as_str()))
    }

    /// The name a device was created under.
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn device_name(&self, device: DeviceHandle) -> &str {
        &self.slot(device).name
    }

    fn slot(&self, device: DeviceHandle) -> &Arc<DeviceSlot> {
        self.devices
            .get(device.index())
            .expect("DeviceHandle was minted by a different session")
    }

    /// Cumulative counters of a pooled device: everything its request
    /// stream has done to it so far (GC, migration, coherence traffic,
    /// wear, energy). All-zero until the device's first run.
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn device_snapshot(&self, device: DeviceHandle) -> DeviceSnapshot {
        self.slot(device)
            .lane
            .lock()
            .expect("device-lane mutex poisoned")
            .device
            .as_ref()
            .map(SsdDevice::snapshot)
            .unwrap_or_default()
    }

    /// A device's stream clock: the finish time of the last request it
    /// served (zero while pristine).
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn device_clock(&self, device: DeviceHandle) -> SimTime {
        self.slot(device)
            .lane
            .lock()
            .expect("device-lane mutex poisoned")
            .clock
    }

    /// Discards a pooled device's state and resets its stream clock,
    /// returning the final snapshot; the device's next run starts from a
    /// pristine device. Other devices and fresh runs are unaffected.
    ///
    /// # Panics
    ///
    /// Panics on a handle minted by a different session.
    pub fn reset_device(&self, device: DeviceHandle) -> DeviceSnapshot {
        let mut lane = self
            .slot(device)
            .lane
            .lock()
            .expect("device-lane mutex poisoned");
        let snapshot = lane
            .device
            .take()
            .map(|device| device.snapshot())
            .unwrap_or_default();
        lane.clock = SimTime::ZERO;
        snapshot
    }

    // ------------------------------------------------------------------
    // Execution
    // ------------------------------------------------------------------

    fn plan(&self, request: &RunRequest) -> Result<RunPlan> {
        let (program, registered) = match &request.source {
            ProgramSource::Registered(id) => {
                let program = Arc::clone(self.registry.get(*id).ok_or_else(|| {
                    ConduitError::invalid_program(format!(
                        "program {id} is not registered in this session"
                    ))
                })?);
                (program, Some(*id))
            }
            ProgramSource::Inline(program) => (Arc::clone(program), None),
        };
        // Registered programs strip-mine once per (program, policy,
        // cost-function); inline one-shots plan on the fly in the engine.
        let strip_plan = match registered {
            Some(id) => {
                let key = (id, request.policy, request.cost_function);
                let mut cache = self.plan_cache.lock().unwrap_or_else(|e| e.into_inner());
                let plan = match cache.entry(key) {
                    std::collections::hash_map::Entry::Occupied(entry) => {
                        self.plan_cache_hits.fetch_add(1, Ordering::Relaxed);
                        Arc::clone(entry.get())
                    }
                    std::collections::hash_map::Entry::Vacant(entry) => {
                        self.plan_cache_misses.fetch_add(1, Ordering::Relaxed);
                        Arc::clone(entry.insert(Arc::new(StripPlan::plan(
                            &program,
                            request.policy,
                            request.cost_function,
                        ))))
                    }
                };
                Some(plan)
            }
            None => {
                self.plan_cache_inline.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        let mode = match request.device {
            None => PlanMode::Fresh,
            Some(handle) => {
                if handle.index() >= self.devices.len() {
                    return Err(ConduitError::invalid_config(format!(
                        "device {handle} is not part of this session's pool"
                    )));
                }
                PlanMode::Device(handle.index())
            }
        };
        Ok(RunPlan {
            program,
            registered,
            options: request.run_options(),
            repeats: request.repeats,
            collect_energy_split: request.collect_energy_split,
            percentiles: request.percentiles.clone(),
            mode,
            arrival: request.arrival.saturating_since(SimTime::ZERO),
            flow: request.flow,
            weight: request.weight.max(1),
            strip_plan,
            prepared: None,
        })
    }

    fn engine(&self) -> &RuntimeEngine {
        self.engine
            .get_or_init(|| RuntimeEngine::with_host(&self.ssd, &self.host))
    }

    /// A point-in-time snapshot of the strip-plan cache counters: cache
    /// hits, planner runs (misses), inline-program runs that bypass the
    /// cache, and how fresh runs got their prepared devices. Counters only
    /// ever grow for the session's lifetime.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.plan_cache_hits.load(Ordering::Relaxed),
            misses: self.plan_cache_misses.load(Ordering::Relaxed),
            inline: self.plan_cache_inline.load(Ordering::Relaxed),
            prepared_builds: self.device_counts.built.load(Ordering::Relaxed),
            prepared_clones: self.device_counts.cloned.load(Ordering::Relaxed),
        }
    }

    /// Executes one request on the calling thread (fresh runs on a pristine
    /// device, the repeats of a registered program sharing one prepared
    /// device; warm runs continue on their pooled device's persistent
    /// state).
    ///
    /// # Errors
    ///
    /// Propagates unknown program/device handles, preparation and
    /// simulation errors.
    pub fn submit(&self, request: &RunRequest) -> Result<RunOutcome> {
        let mut plan = self.plan(request)?;
        match plan.mode {
            PlanMode::Fresh => {
                share_prepared(std::slice::from_mut(&mut plan));
                execute_fresh(
                    &self.ssd,
                    &self.host,
                    self.faults,
                    &plan,
                    &self.device_counts,
                )
            }
            PlanMode::Device(slot) => {
                // A lone submit is a batch of one: the lane window covers
                // exactly this request.
                self.reset_lane_window_of(slot);
                execute_on_lane(self.engine(), &self.ssd, &self.devices[slot], &plan, None)
            }
        }
    }

    /// Resets the windowed lane statistics of one device slot (no-op for a
    /// device that has never run).
    fn reset_lane_window_of(&self, slot: usize) {
        if let Some(device) = self.devices[slot]
            .lane
            .lock()
            .expect("device-lane mutex poisoned")
            .device
            .as_mut()
        {
            device.reset_lane_window();
        }
    }

    /// Executes a batch of independent requests and returns the outcomes in
    /// request order. Fresh requests fan out across the session's thread
    /// pool as bulk-class jobs; warm requests are grouped into **per-device
    /// lanes** — serial within a device (they share its state and stream
    /// clock), parallel across devices and alongside the fresh fan-out. A
    /// lane serves in plain request-order FIFO unless its requests carry
    /// mixed weights, in which case it serves by deficit round robin over
    /// per-flow sub-queues ([`RunRequest::weighted`]). Lane tasks run in
    /// the pool's reserved **lane class** ([`crate::JobClass::Lane`]), so a ready
    /// lane never waits behind the queued fresh backlog on a small pool.
    ///
    /// Every fresh run simulates on a fresh device and every lane serves
    /// its device's requests in a deterministic, simulated-time-driven
    /// order, so the outcomes are **bit-identical** to running the whole
    /// batch serially — only the wall-clock time changes
    /// (`tests/integration_determinism.rs` and
    /// `tests/integration_device_pool.rs` assert this). A registered
    /// program that runs fresh more than once in the batch (counting
    /// repeats) is prepared once: its other runs clone that device, the last
    /// of them takes it, and nothing is kept past the batch.
    ///
    /// # Errors
    ///
    /// Resolves every request's program and device up front (failing fast
    /// on unknown handles) and propagates the first simulation error by
    /// request order.
    pub fn submit_batch(&self, requests: &[RunRequest]) -> Result<Vec<RunOutcome>> {
        let mut plans: Vec<RunPlan> = requests
            .iter()
            .map(|r| self.plan(r))
            .collect::<Result<_>>()?;
        share_prepared(&mut plans);
        let fresh: Vec<usize> = (0..plans.len())
            .filter(|&i| plans[i].mode == PlanMode::Fresh)
            .collect();
        // Per-device FIFO lanes, keyed by slot, requests in request order.
        let mut lanes: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            if let PlanMode::Device(slot) = plan.mode {
                match lanes.iter_mut().find(|(s, _)| *s == slot) {
                    Some((_, indices)) => indices.push(i),
                    None => lanes.push((slot, vec![i])),
                }
            }
        }
        // Each participating device's lane window restarts with the batch —
        // done on the calling thread, before any worker runs, so the window
        // boundary is deterministic regardless of pool interleaving.
        for &(slot, _) in &lanes {
            self.reset_lane_window_of(slot);
        }
        // Every request in a batch "arrives" at its device's current stream
        // clock; later lane positions accumulate queueing time. Captured up
        // front so the serial and parallel paths agree bit-identically.
        let arrivals: Vec<SimTime> = lanes
            .iter()
            .map(|&(slot, _)| {
                self.devices[slot]
                    .lane
                    .lock()
                    .expect("device-lane mutex poisoned")
                    .clock
            })
            .collect();
        let arrival_of = |slot: usize| {
            lanes
                .iter()
                .position(|&(s, _)| s == slot)
                .map(|i| arrivals[i])
                .expect("every device slot in the batch has an arrival clock")
        };

        let parallelism = self.workers.min(fresh.len()) + lanes.len();
        if self.workers <= 1 || parallelism <= 1 {
            // Execute *every* plan before propagating the first error (by
            // request order) — the parallel path below cannot short-circuit
            // one lane on another's failure, so the serial fallback must
            // not either, or the devices would age differently depending on
            // the worker count. Fresh runs and distinct lanes never share
            // state, so walking fresh runs first and then each lane (in its
            // own scheduling order — see [`run_lane`]) produces the same
            // outcomes as any interleaving.
            let mut slots: Vec<Option<Result<RunOutcome>>> =
                (0..plans.len()).map(|_| None).collect();
            for &i in &fresh {
                slots[i] = Some(execute_fresh(
                    &self.ssd,
                    &self.host,
                    self.faults,
                    &plans[i],
                    &self.device_counts,
                ));
            }
            for (slot, indices) in &lanes {
                run_lane(
                    self.engine(),
                    &self.ssd,
                    &self.devices[*slot],
                    &plans,
                    indices,
                    arrival_of(*slot),
                    self.drr_quantum,
                    |i, outcome| {
                        slots[i] = Some(outcome);
                        true
                    },
                );
            }
            return slots
                .into_iter()
                .map(|slot| slot.expect("every request executes exactly once"))
                .collect();
        }

        let pool = self.pool.get_or_init(|| ThreadPool::new(self.workers));
        let total = plans.len();
        let expected = fresh.len() + lanes.iter().map(|(_, idx)| idx.len()).sum::<usize>();
        let shared = Arc::new(BatchState {
            ssd: self.ssd.clone(),
            host: self.host.clone(),
            faults: self.faults,
            plans,
            counts: Arc::clone(&self.device_counts),
        });
        let (tx, rx) = channel();
        // One lane-class task per device lane, enqueued ahead of the fresh
        // fan-out: the lane serves its requests (FIFO, or deficit round
        // robin when weights differ — see [`run_lane`]) while other lanes
        // and the fresh jobs proceed in parallel, and the pool's reserved
        // lane slots dequeue these ahead of any queued bulk work. A request
        // failure does not stop the lane (matching the serial path), it is
        // reported in that request's slot.
        let quantum = self.drr_quantum;
        for (lane_pos, (slot, indices)) in lanes.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let device = Arc::clone(&self.devices[slot]);
            let engine = self.engine().clone();
            let base = arrivals[lane_pos];
            pool.execute_lane(move || {
                run_lane(
                    &engine,
                    &shared.ssd,
                    &device,
                    &shared.plans,
                    &indices,
                    base,
                    quantum,
                    |i, outcome| tx.send((i, outcome)).is_ok(),
                );
            });
        }
        // One bulk-class job per fresh request (rather than per-worker
        // cursor loops): fine-grained jobs let a lane-slot worker that
        // helped with fresh work return to newly-arrived lane tasks after
        // one request instead of owning the whole fresh backlog.
        for i in fresh {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            pool.execute(move || {
                let outcome = execute_fresh(
                    &shared.ssd,
                    &shared.host,
                    shared.faults,
                    &shared.plans[i],
                    &shared.counts,
                );
                let _ = tx.send((i, outcome));
            });
        }
        drop(tx);

        let mut slots: Vec<Option<Result<RunOutcome>>> = (0..total).map(|_| None).collect();
        for _ in 0..expected {
            let (i, outcome) = rx
                .recv()
                .map_err(|_| ConduitError::simulation("batch worker terminated unexpectedly"))?;
            slots[i] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every request index reports exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conduit_types::{Energy, OpType, Operand};

    fn program(name: &str) -> VectorProgram {
        let mut prog = VectorProgram::new(name);
        let a = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
        prog.push_binary(OpType::Add, Operand::result(a), Operand::page(8));
        prog
    }

    fn session() -> Session {
        Session::builder(SsdConfig::small_for_tests()).build()
    }

    #[test]
    fn register_and_submit_summary_only() {
        let mut s = session();
        let id = s.register(program("s")).unwrap();
        let outcome = s.submit(&RunRequest::new(id, Policy::Conduit)).unwrap();
        assert_eq!(outcome.summary.instructions, 2);
        assert_eq!(outcome.summary.workload, "s");
        assert!(outcome.summary.total_time > Duration::ZERO);
        assert_eq!(outcome.summary.total_time, outcome.summary.service_time);
        assert_eq!(outcome.summary.queueing_time, Duration::ZERO);
        assert!(outcome.summary.total_energy > Energy::ZERO);
        assert!(outcome.summary.energy_split.is_some());
        assert_eq!(outcome.summary.latency.len(), 2);
        assert_eq!(outcome.summary.percentiles.len(), DEFAULT_PERCENTILES.len());
        // Timelines are opt-in.
        assert!(outcome.artifacts.is_none());
    }

    #[test]
    fn collection_flags_are_honoured() {
        let mut s = session();
        let id = s.register(program("flags")).unwrap();
        let outcome = s
            .submit(
                &RunRequest::new(id, Policy::Conduit)
                    .with_timeline()
                    .energy_split(false)
                    .percentiles(&[0.5]),
            )
            .unwrap();
        let timeline = &outcome.artifacts.as_ref().unwrap().timeline;
        assert_eq!(timeline.len(), 2);
        assert!(outcome.summary.energy_split.is_none());
        assert_eq!(outcome.summary.percentiles.len(), 1);
        assert_eq!(outcome.summary.percentiles[0].0, 0.5);
    }

    #[test]
    fn unknown_program_id_is_rejected() {
        let mut a = session();
        let mut b = session();
        let _ = a.register(program("a")).unwrap();
        let id_b = b.register(program("b")).unwrap();
        let _ = b.register(program("b2")).unwrap();
        // An id minted by another session with more programs is unknown
        // here.
        let foreign = ProgramId(7);
        assert!(a
            .submit(&RunRequest::new(foreign, Policy::Conduit))
            .is_err());
        // Unknown handles fail the whole batch up front, before anything
        // runs.
        assert!(a
            .submit_batch(&[
                RunRequest::new(id_b, Policy::Conduit),
                RunRequest::new(foreign, Policy::Conduit),
            ])
            .is_err());
    }

    #[test]
    fn foreign_device_handle_is_rejected() {
        let mut a = session();
        let mut b = session();
        let _ = b.create_device("x");
        let _ = b.create_device("y");
        let foreign = b.create_device("z");
        let id = a.register(program("d")).unwrap();
        assert!(a
            .submit(&RunRequest::new(id, Policy::Conduit).on_device(foreign))
            .is_err());
    }

    #[test]
    fn invalid_program_is_rejected_at_registration() {
        let mut s = session();
        let mut bad = VectorProgram::new("bad");
        bad.push(conduit_types::VectorInst::with_srcs(
            0,
            OpType::Add,
            vec![Operand::page(0)],
        ));
        assert!(s.register(bad).is_err());
    }

    /// A one-instruction program of `op` on `lanes` lanes of
    /// `elem_bits`-bit elements.
    fn single(op: OpType, elem_bits: u32, lanes: u32) -> VectorProgram {
        let srcs = (0..op.arity() as u64)
            .map(|i| Operand::page(4 * i))
            .collect();
        let mut prog = VectorProgram::new("single");
        prog.push(
            conduit_types::VectorInst::with_srcs(0, op, srcs)
                .elem_bits(elem_bits)
                .lanes(lanes),
        );
        prog
    }

    /// Asserts that `program` is an invalid program at registration, at an
    /// inline submit under every policy, and when decoded from bytes.
    fn assert_rejected_everywhere(program: &VectorProgram) {
        let invalid = |err: ConduitError| matches!(err, ConduitError::InvalidProgram { .. });
        let mut s = session();
        assert!(invalid(s.register(program.clone()).unwrap_err()));
        assert!(s.registry().is_empty());
        for policy in Policy::ALL {
            let request = RunRequest::inline(program.clone(), policy);
            assert!(invalid(s.submit(&request).unwrap_err()), "{policy:?}");
        }
        assert!(invalid(
            VectorProgram::from_bytes(&program.to_bytes()).unwrap_err()
        ));
    }

    #[test]
    fn element_widths_out_of_range_are_invalid_programs() {
        // Every cost row divides by the element width, and PuD needs at
        // least one element per DRAM row.
        for bits in [0, 65, 65_537, u32::MAX] {
            for op in [OpType::Add, OpType::Xor] {
                assert_rejected_everywhere(&single(op, bits, 4096));
            }
        }
    }

    #[test]
    fn widest_elements_on_the_widest_vector_are_an_invalid_program() {
        // About 2^49 pages: rejected before anything sizes per-page state
        // for the vector.
        assert_rejected_everywhere(&single(OpType::Div, u32::MAX, u32::MAX));
    }

    #[test]
    fn element_widths_at_the_bounds_run_under_every_op_and_policy() {
        let mut s = session();
        for bits in [1, conduit_types::inst::MAX_ELEM_BITS] {
            for lanes in [1, 4096] {
                for op in OpType::ALL {
                    let id = s.register(single(op, bits, lanes)).unwrap();
                    for policy in Policy::ALL {
                        let outcome = s.submit(&RunRequest::new(id, policy));
                        assert!(outcome.is_ok(), "{op:?} {bits}x{lanes} {policy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn repeats_are_deterministic() {
        let mut s = session();
        let id = s.register(program("rep")).unwrap();
        let once = s.submit(&RunRequest::new(id, Policy::Conduit)).unwrap();
        let thrice = s
            .submit(&RunRequest::new(id, Policy::Conduit).repeat(3))
            .unwrap();
        assert_eq!(thrice.summary.repeats, 3);
        assert_eq!(once.summary.total_time, thrice.summary.total_time);
        assert_eq!(once.summary.offload_mix, thrice.summary.offload_mix);
    }

    #[test]
    fn batch_matches_serial_submission() {
        let mut s = Session::builder(SsdConfig::small_for_tests())
            .workers(4)
            .build();
        let id = s.register(program("batch")).unwrap();
        let requests: Vec<RunRequest> = [Policy::HostCpu, Policy::Conduit, Policy::Ideal]
            .into_iter()
            .map(|p| RunRequest::new(id, p))
            .collect();
        let batched = s.submit_batch(&requests).unwrap();
        let serial: Vec<RunOutcome> = requests.iter().map(|r| s.submit(r).unwrap()).collect();
        assert_eq!(batched, serial);
    }

    #[test]
    fn plan_cache_counts_hits_misses_and_inline_runs() {
        let mut s = session();
        let id = s.register(program("cached")).unwrap();
        let dev = s.create_device("warm");
        let ablated = CostFunction {
            include_queue_delay: false,
            ..CostFunction::conduit()
        };
        // One planner run per (program, policy, cost-function) key; every
        // later request for the key hits, whatever its repeats or device.
        let requests = [
            RunRequest::new(id, Policy::Conduit),
            RunRequest::new(id, Policy::Conduit).repeat(3),
            RunRequest::new(id, Policy::Conduit).on_device(dev),
            RunRequest::new(id, Policy::HostCpu),
            RunRequest::new(id, Policy::Conduit).cost_function(ablated),
        ];
        for request in &requests {
            s.submit(request).unwrap();
        }
        s.submit_batch(&requests).unwrap();
        // Inline programs bypass the cache.
        for _ in 0..2 {
            s.submit(&RunRequest::inline(program("inline"), Policy::Conduit))
                .unwrap();
        }
        let stats = s.plan_cache_stats();
        assert_eq!((stats.misses, stats.hits, stats.inline), (3, 7, 2));
        assert_eq!(stats.hit_rate(), 0.7);
    }

    #[test]
    fn registry_roundtrips_through_bytes() {
        let mut s = session();
        let id = s.register(program("persist")).unwrap();
        let bytes = s.export_registry();

        let mut other = session();
        let ids = other.import_registry(&bytes).unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(other.program(ids[0]), s.program(id));

        let a = s.submit(&RunRequest::new(id, Policy::Conduit)).unwrap();
        let b = other
            .submit(&RunRequest::new(ids[0], Policy::Conduit))
            .unwrap();
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn corrupt_registry_bytes_are_rejected() {
        let mut s = session();
        let _ = s.register(program("c")).unwrap();
        let mut bytes = s.export_registry();
        assert!(ProgramRegistry::from_bytes(&bytes[..5]).is_err());
        bytes[0] = b'X';
        assert!(ProgramRegistry::from_bytes(&bytes).is_err());
        let mut t = session();
        assert!(t.import_registry(&[1, 2, 3]).is_err());
        assert!(t.registry().is_empty());
    }

    #[test]
    fn inline_requests_run_without_registration() {
        let s = session();
        let outcome = s
            .submit(&RunRequest::inline(program("inline"), Policy::HostCpu))
            .unwrap();
        assert_eq!(outcome.summary.policy, Policy::HostCpu);
        assert!(s.registry().is_empty());
    }

    #[test]
    fn registry_dedupes_identical_programs() {
        let mut s = session();
        let a = s.register(program("same")).unwrap();
        let b = s.register(program("same")).unwrap();
        assert_eq!(a, b, "identical content must map to one id");
        assert_eq!(s.registry().len(), 1);
        // A different name changes the content, so it gets its own entry.
        let c = s.register(program("other")).unwrap();
        assert_ne!(a, c);
        assert_eq!(s.registry().len(), 2);
        // Importing an already-registered program maps to the existing id.
        let bytes = s.export_registry();
        let ids = s.import_registry(&bytes).unwrap();
        assert_eq!(ids, vec![a, c]);
        assert_eq!(s.registry().len(), 2);
    }

    #[test]
    fn byte_streams_storing_a_program_twice_are_rejected() {
        // A content-addressed registry never serializes one program twice,
        // so such a stream is corrupt: decoding fails, and importing it
        // leaves the session's registry empty.
        let dup = program("dup");
        let other = program("other");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&REGISTRY_MAGIC);
        bytes.extend_from_slice(&REGISTRY_FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        for p in [&dup, &other, &dup] {
            let body = p.to_bytes();
            bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&body);
        }
        assert!(matches!(
            ProgramRegistry::from_bytes(&bytes),
            Err(ConduitError::InvalidProgram { .. })
        ));
        let mut s = session();
        assert!(matches!(
            s.import_registry(&bytes),
            Err(ConduitError::InvalidProgram { .. })
        ));
        assert!(s.registry().is_empty());
    }

    #[test]
    fn warm_device_carries_state_across_submissions() {
        let mut s = session();
        let default = s.create_device("tenant");
        let request = RunRequest::inline(program("warm"), Policy::Conduit).on_device(default);
        let first = s.submit(&request).unwrap();
        let snap_after_first = s.device_snapshot(default);
        assert!(snap_after_first.device_ops > 0);
        assert_eq!(
            first.summary.device_delta.device_ops,
            snap_after_first.device_ops
        );
        let second = s.submit(&request).unwrap();
        let snap_after_second = s.device_snapshot(default);
        // The warm device accumulates: the second run starts where the
        // first ended.
        assert!(snap_after_second.device_ops > snap_after_first.device_ops);
        assert_eq!(
            second.summary.device_delta.device_ops,
            snap_after_second.device_ops - snap_after_first.device_ops
        );
        // The stream clock advanced past both runs.
        assert_eq!(
            s.device_clock(default).as_ps(),
            first.summary.service_time.as_ps() + second.summary.service_time.as_ps()
        );
        // Resetting discards the state; the next snapshot is pristine.
        let last = s.reset_device(default);
        assert_eq!(last, snap_after_second);
        assert_eq!(
            s.device_snapshot(default),
            conduit_sim::DeviceSnapshot::default()
        );
        assert_eq!(s.device_clock(default), SimTime::ZERO);
    }

    #[test]
    fn named_devices_age_independently() {
        let mut s = session();
        let id = s.register(program("tenants")).unwrap();
        let a = s.create_device("tenant-a");
        let b = s.create_device("tenant-b");
        assert_ne!(a, b);
        assert_eq!(s.create_device("tenant-a"), a, "creation is idempotent");
        assert_eq!(s.find_device("tenant-b"), Some(b));
        assert_eq!(s.device_name(a), "tenant-a");
        assert_eq!(s.devices().count(), 2, "two tenants");

        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(a))
            .unwrap();
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(a))
            .unwrap();
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(b))
            .unwrap();
        let snap_a = s.device_snapshot(a);
        let snap_b = s.device_snapshot(b);
        assert!(snap_a.device_ops > snap_b.device_ops);
        // Resetting one tenant leaves the other aging.
        s.reset_device(a);
        assert_eq!(s.device_snapshot(a), DeviceSnapshot::default());
        assert_eq!(s.device_snapshot(b), snap_b);
    }

    #[test]
    fn lane_requests_split_queueing_from_service() {
        let mut s = Session::builder(SsdConfig::small_for_tests())
            .workers(4)
            .build();
        let id = s.register(program("lane")).unwrap();
        let dev = s.create_device("tenant");
        let batch = s
            .submit_batch(&[
                RunRequest::new(id, Policy::Conduit).on_device(dev),
                RunRequest::new(id, Policy::Conduit).on_device(dev),
            ])
            .unwrap();
        assert_eq!(batch[0].summary.queueing_time, Duration::ZERO);
        // The second request queued behind the first's service time.
        assert_eq!(
            batch[1].summary.queueing_time,
            batch[0].summary.service_time
        );
        assert_eq!(
            batch[1].summary.total_time,
            batch[1].summary.queueing_time + batch[1].summary.service_time
        );
        // A lone submit finds the lane idle: no queueing.
        let lone = s
            .submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        assert_eq!(lone.summary.queueing_time, Duration::ZERO);
        // Repeats are the request's own service, not lane wait: a repeated
        // request on an idle lane still reports zero queueing while its
        // repeats advance the stream clock.
        let clock_before = s.device_clock(dev);
        let repeated = s
            .submit(
                &RunRequest::new(id, Policy::Conduit)
                    .on_device(dev)
                    .repeat(3),
            )
            .unwrap();
        assert_eq!(repeated.summary.queueing_time, Duration::ZERO);
        assert!(s.device_clock(dev) > clock_before);
    }

    #[test]
    fn fresh_runs_are_unaffected_by_warm_history() {
        let mut s = session();
        let id = s.register(program("iso")).unwrap();
        let dev = s.create_device("history");
        let fresh = RunRequest::new(id, Policy::Conduit);
        let before = s.submit(&fresh).unwrap();
        for _ in 0..3 {
            s.submit(&fresh.clone().on_device(dev)).unwrap();
        }
        let after = s.submit(&fresh).unwrap();
        assert_eq!(before, after, "fresh runs must not see warm-device state");
        // Fresh runs also report their own device footprint — but no lane
        // accounting, because there is no lane.
        assert!(before.summary.device_delta.device_ops > 0);
        assert_eq!(before.summary.device_delta.lane_requests, 0);
    }

    #[test]
    fn open_loop_arrivals_drive_queueing_and_idle_gaps() {
        let mut s = session();
        let id = s.register(program("arrivals")).unwrap();
        let dev = s.create_device("open-loop");

        // Probe the service time of one request on this device when fresh.
        let probe = s
            .submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let service = probe.summary.service_time;
        s.reset_device(dev);

        // Request 1 arrives at t=0; request 2 arrives mid-service of
        // request 1: its queueing is arrival-relative, not batch-relative.
        let mid = SimTime::ZERO + service / 2;
        let batch = s
            .submit_batch(&[
                RunRequest::new(id, Policy::Conduit).on_device(dev),
                RunRequest::new(id, Policy::Conduit)
                    .on_device(dev)
                    .arriving_at(mid),
            ])
            .unwrap();
        assert_eq!(batch[0].summary.queueing_time, Duration::ZERO);
        assert_eq!(
            batch[1].summary.queueing_time,
            batch[0].summary.service_time - (mid.saturating_since(SimTime::ZERO)),
            "queueing counts from the request's own arrival"
        );

        // A request arriving after the lane drained leaves the device idle
        // for the gap: zero queueing, stream clock jumps to the arrival.
        let clock = s.device_clock(dev);
        let late_by = Duration::from_us(250.0);
        let snap_before = s.device_snapshot(dev);
        let late = s
            .submit(
                &RunRequest::new(id, Policy::Conduit)
                    .on_device(dev)
                    .arriving_at(SimTime::ZERO + late_by),
            )
            .unwrap();
        assert_eq!(late.summary.queueing_time, Duration::ZERO);
        assert_eq!(
            s.device_clock(dev),
            clock + late_by + late.summary.service_time,
            "the stream clock advances to max(prev finish, arrival) + service"
        );
        let snap = s.device_snapshot(dev);
        assert_eq!(
            snap.lane_idle_time,
            snap_before.lane_idle_time + late_by,
            "the idle gap is accounted on the device"
        );
        assert_eq!(late.summary.device_delta.lane_idle_time, late_by);
        assert_eq!(late.summary.device_delta.lane_requests, 1);
        assert!(snap.lane_occupancy() < 1.0);
        assert_eq!(snap.lane_requests, 3);

        // Closed-loop lanes report full occupancy.
        let mut closed = session();
        let cid = closed.register(program("arrivals")).unwrap();
        let cdev = closed.create_device("closed-loop");
        for _ in 0..2 {
            closed
                .submit(&RunRequest::new(cid, Policy::Conduit).on_device(cdev))
                .unwrap();
        }
        assert_eq!(closed.device_snapshot(cdev).lane_occupancy(), 1.0);
    }

    #[test]
    fn fresh_arrivals_translate_without_changing_results() {
        let mut s = session();
        let id = s.register(program("shift")).unwrap();
        let base = s.submit(&RunRequest::new(id, Policy::Conduit)).unwrap();
        let shifted = s
            .submit(
                &RunRequest::new(id, Policy::Conduit)
                    .arriving_at(SimTime::ZERO + Duration::from_us(700.0)),
            )
            .unwrap();
        assert_eq!(shifted.summary.queueing_time, Duration::ZERO);
        assert_eq!(shifted.summary, base.summary);
    }

    #[test]
    fn device_checkpoint_roundtrips_between_sessions() {
        let mut s = session();
        let id = s.register(program("ckpt")).unwrap();
        let dev = s.create_device("aging");
        for policy in [Policy::Conduit, Policy::PudSsd, Policy::HostCpu] {
            s.submit(&RunRequest::new(id, policy).on_device(dev))
                .unwrap();
        }
        let bytes = s.export_device(dev).unwrap();

        let mut other = session();
        let other_id = other.register(program("ckpt")).unwrap();
        let revived = other.import_device("aging", &bytes).unwrap();
        assert_eq!(other.device_snapshot(revived), s.device_snapshot(dev));
        assert_eq!(other.device_clock(revived), s.device_clock(dev));

        // Replay after the checkpoint is bit-identical to continuing the
        // original stream.
        let continued = s
            .submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let replayed = other
            .submit(&RunRequest::new(other_id, Policy::Conduit).on_device(revived))
            .unwrap();
        assert_eq!(continued, replayed);

        // Corrupt checkpoints are rejected.
        assert!(other.import_device("bad", &bytes[..10]).is_err());
        let mut flipped = bytes.clone();
        flipped[0] = b'X';
        assert!(other.import_device("bad", &flipped).is_err());
    }

    #[test]
    fn checkpoint_import_rejects_a_mismatched_configuration() {
        let mut s = session();
        let id = s.register(program("fp")).unwrap();
        let dev = s.create_device("tenant");
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let bytes = s.export_device(dev).unwrap();

        // Same geometry — the structural shape checks cannot tell these
        // apart — but a different flash read latency: the embedded
        // fingerprint must reject the import as corrupt.
        let mut slow_read = SsdConfig::small_for_tests();
        slow_read.flash.t_read = Duration::from_us(95.0);
        let mut other = Session::builder(slow_read).build();
        let err = other.import_device("tenant", &bytes).unwrap_err();
        assert!(
            matches!(err, ConduitError::CorruptCheckpoint { .. }),
            "got {err:?}"
        );
        assert!(other.find_device("tenant").is_none(), "pool unchanged");

        // A different *host* configuration is just as fatal: host-policy
        // service times shape the stream clock too.
        let mut fast_host = conduit_types::HostConfig::default();
        fast_host.cpu.freq_hz *= 2.0;
        let mut hosty = Session::builder(SsdConfig::small_for_tests())
            .host(fast_host)
            .build();
        assert!(matches!(
            hosty.import_device("tenant", &bytes),
            Err(ConduitError::CorruptCheckpoint { .. })
        ));

        // The exporting configuration still accepts it.
        let mut same = session();
        assert!(same.import_device("tenant", &bytes).is_ok());
    }

    #[test]
    fn pathological_arrival_offsets_saturate_instead_of_wrapping() {
        let mut s = session();
        let id = s.register(program("sat")).unwrap();
        let dev = s.create_device("edge");
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let clock = s.device_clock(dev);
        // An absurd arrival must not panic or wrap the stream clock
        // backwards; the clock clamps at the end of representable time.
        let outcome = s.submit(
            &RunRequest::new(id, Policy::Conduit)
                .on_device(dev)
                .arriving_at(SimTime::from_ps(u64::MAX - 1)),
        );
        assert!(outcome.is_ok());
        assert!(s.device_clock(dev) >= clock, "clock must never move back");
    }

    #[test]
    fn importing_over_an_existing_name_replaces_the_device() {
        let mut s = session();
        let id = s.register(program("replace")).unwrap();
        let dev = s.create_device("tenant");
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let checkpoint = s.export_device(dev).unwrap();
        // Age the device further, then restore the earlier checkpoint in
        // place.
        s.submit(&RunRequest::new(id, Policy::Conduit).on_device(dev))
            .unwrap();
        let aged = s.device_snapshot(dev);
        let restored = s.import_device("tenant", &checkpoint).unwrap();
        assert_eq!(restored, dev, "the handle is stable across restores");
        assert_ne!(s.device_snapshot(dev), aged);
    }

    #[test]
    fn exporting_a_pristine_device_roundtrips() {
        let mut s = session();
        let dev = s.create_device("unused");
        let bytes = s.export_device(dev).unwrap();
        let mut other = session();
        let revived = other.import_device("unused", &bytes).unwrap();
        assert_eq!(other.device_snapshot(revived), DeviceSnapshot::default());
        assert_eq!(other.device_clock(revived), SimTime::ZERO);
    }

    #[test]
    fn outcome_converts_to_run_report() {
        let mut s = session();
        let id = s.register(program("report")).unwrap();
        let outcome = s
            .submit(&RunRequest::new(id, Policy::Conduit).with_timeline())
            .unwrap();
        let summary = outcome.summary.clone();
        let report = outcome.into_run_report();
        assert_eq!(report.total_time, summary.total_time);
        assert_eq!(report.energy.total(), summary.total_energy);
        assert_eq!(report.timeline.len(), 2);
    }
}
