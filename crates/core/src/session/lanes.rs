//! How planned runs execute: fresh runs on pristine devices, and warm runs
//! on the named device pool — one FIFO (or deficit-round-robin) lane and
//! stream clock per device.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use conduit_sim::{DeviceDelta, DeviceSnapshot, SsdDevice};
use conduit_types::{Duration, FaultConfig, Result, SimTime, SsdConfig, VectorProgram};

use crate::batch::StripPlan;
use crate::engine::{RunOptions, RuntimeEngine};
use crate::report::RunReport;

use super::registry::ProgramId;
use super::summary::{RunArtifacts, RunOutcome, RunSummary};
use super::DEFAULT_PERCENTILES;

/// Handle to a named warm device in a [`Session`](crate::Session)'s device pool.
///
/// Minted by [`Session::create_device`](crate::Session::create_device) /
/// [`Session::import_device`](crate::Session::import_device). Handles are
/// dense indices in creation order and are only meaningful within the
/// session that minted them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceHandle(pub(super) u32);

impl DeviceHandle {
    /// The dense creation-order index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for DeviceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// How a planned run executes: on a pristine device, or on one of the
/// session's pooled warm devices (by slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PlanMode {
    Fresh,
    Device(usize),
}

/// Everything needed to execute one request, resolved against the session
/// before the request runs.
pub(super) struct RunPlan {
    pub(super) program: Arc<VectorProgram>,
    /// The program's registry id; `None` for an inline program.
    pub(super) registered: Option<ProgramId>,
    pub(super) options: RunOptions,
    pub(super) mode: PlanMode,
    /// Arrival offset on the batch timeline
    /// ([`RunRequest::arriving_at`](crate::RunRequest::arriving_at)).
    pub(super) arrival: Duration,
    /// Weighted-fair flow and weight ([`RunRequest::weighted`](crate::RunRequest::weighted)).
    pub(super) flow: u32,
    pub(super) weight: u32,
    /// The cached strip decomposition for registered programs (see
    /// [`StripPlan`]); inline programs plan on the fly in the engine.
    pub(super) strip_plan: Option<Arc<StripPlan>>,
    /// The prepared device this fresh plan's runs clone, shared with every
    /// other fresh run of its program in the batch ([`share_prepared`]).
    pub(super) prepared: Option<Arc<Mutex<PreparedDevice>>>,
}

/// A pristine device with one registered program prepared on it, built by
/// the first of the program's fresh runs in a batch, cloned by the others
/// and taken by the last. Building a fresh device and preparing a program
/// on it depends only on the configuration, the fault plan and the program
/// (prepare reserves no timeline and draws no fault), so every clone is
/// exactly the device its run would have built.
#[derive(Debug)]
pub(super) struct PreparedDevice {
    /// Runs that have not asked for their device yet.
    remaining: u64,
    /// Whether a run has built the device, or tried to.
    tried: bool,
    /// `None` before the first build, after a failed one (each run then
    /// builds its own device and returns its own error), and once the last
    /// run took it.
    device: Option<SsdDevice>,
}

/// How fresh runs got their prepared devices, counted over a session's
/// lifetime (see [`PlanCacheStats`](crate::PlanCacheStats)).
#[derive(Debug, Default)]
pub(super) struct DeviceCounts {
    pub(super) built: AtomicU64,
    pub(super) cloned: AtomicU64,
}

/// Gives the fresh plans of every registered program that runs fresh more
/// than once in `plans` one [`PreparedDevice`] to share. A program that
/// runs once, and every inline program, builds its own.
pub(super) fn share_prepared(plans: &mut [RunPlan]) {
    let mut runs: Vec<(ProgramId, u64)> = Vec::new();
    for plan in plans.iter().filter(|p| p.mode == PlanMode::Fresh) {
        if let Some(id) = plan.registered {
            match runs.iter_mut().find(|(program, _)| *program == id) {
                Some((_, n)) => *n += 1,
                None => runs.push((id, 1)),
            }
        }
    }
    for (id, n) in runs {
        if n < 2 {
            continue;
        }
        let shared = Arc::new(Mutex::new(PreparedDevice {
            remaining: n,
            tried: false,
            device: None,
        }));
        for plan in plans.iter_mut() {
            if plan.mode == PlanMode::Fresh && plan.registered == Some(id) {
                plan.prepared = Some(Arc::clone(&shared));
            }
        }
    }
}

/// One named warm device of the pool: its lazily-built simulated device and
/// the explicit stream clock of its request lane.
#[derive(Debug)]
pub(super) struct DeviceSlot {
    pub(super) name: String,
    /// The fault-injection plan the device is built with on first use and
    /// after a reset (an imported device takes the plan its checkpoint
    /// carries).
    pub(super) faults: FaultConfig,
    pub(super) lane: Mutex<DeviceLane>,
}

impl DeviceSlot {
    pub(super) fn new(name: impl Into<String>, faults: FaultConfig) -> Self {
        DeviceSlot {
            name: name.into(),
            faults,
            lane: Mutex::new(DeviceLane {
                device: None,
                clock: SimTime::ZERO,
            }),
        }
    }
}

#[derive(Debug)]
pub(super) struct DeviceLane {
    /// The warm device, created lazily on the first run so unused pool
    /// members cost nothing.
    pub(super) device: Option<WarmDevice>,
    /// The stream clock: the finish time of the last request on this
    /// device. The next request issues here.
    pub(super) clock: SimTime,
}

/// A lane's simulated device (immutable models + persistent state) and the
/// registered programs prepared on it. Both live and die together: a new
/// device, whether first built, rebuilt by a reset or imported, starts with
/// no program prepared.
#[derive(Debug)]
pub(super) struct WarmDevice {
    pub(super) device: SsdDevice,
    /// Which registered programs, by [`ProgramId`] index, have been
    /// prepared on `device`.
    prepared: Vec<bool>,
}

impl WarmDevice {
    pub(super) fn new(device: SsdDevice) -> Self {
        WarmDevice {
            device,
            prepared: Vec::new(),
        }
    }

    /// Prepares `plan`'s program on the device unless it is a registered
    /// program already prepared here. Skipping is exact: once a program's
    /// pages are mapped, preparing it again maps nothing (no page is ever
    /// unmapped, and a mapped page keeps its placement), reserves no
    /// timeline and draws no fault, and registration already validated the
    /// program. A failed prepare is not recorded, so the next request
    /// prepares again and meets the same error.
    fn prepare(&mut self, engine: &RuntimeEngine, plan: &RunPlan) -> Result<()> {
        let Some(id) = plan.registered else {
            return engine.prepare(&mut self.device, &plan.program);
        };
        if self.prepared.get(id.index()) == Some(&true) {
            return Ok(());
        }
        engine.prepare(&mut self.device, &plan.program)?;
        if self.prepared.len() <= id.index() {
            self.prepared.resize(id.index() + 1, false);
        }
        self.prepared[id.index()] = true;
        Ok(())
    }
}

/// Assembles the outcome from the run report plus the device work the run
/// performed and the lane wait it observed.
fn build_outcome(
    report: RunReport,
    plan: &RunPlan,
    device_delta: DeviceDelta,
    queueing_time: Duration,
) -> RunOutcome {
    let percentiles = DEFAULT_PERCENTILES
        .iter()
        .map(|&p| (p, report.latency.percentile(p)))
        .collect();
    let service_time = report.total_time;
    let summary = RunSummary {
        workload: report.workload,
        policy: report.policy,
        instructions: report.instructions,
        repeats: 1,
        total_time: queueing_time + service_time,
        queueing_time,
        service_time,
        total_energy: report.energy.total(),
        energy_split: Some(report.energy),
        breakdown: report.breakdown,
        offload_mix: report.offload_mix,
        latency: report.latency,
        percentiles,
        overhead: report.overhead,
        device_delta,
    };
    let artifacts = plan.options.record_timeline.then_some(RunArtifacts {
        timeline: report.timeline,
    });
    RunOutcome { summary, artifacts }
}

/// Executes a fresh-mode plan on its own pristine device, which restarts the
/// session's fault plan from its seed, so runs are independent and parallel
/// batches stay bit-identical to serial submission.
pub(super) fn execute_fresh(
    engine: &RuntimeEngine,
    ssd: &SsdConfig,
    faults: FaultConfig,
    plan: &RunPlan,
    counts: &DeviceCounts,
) -> Result<RunOutcome> {
    let mut device = prepared_device(engine, ssd, faults, plan, counts)?;
    // An open-loop arrival translates the fresh run's timeline (timestamps
    // shift, service time and energy do not); there is no lane to queue in.
    let options = plan.options.starting_at(SimTime::ZERO + plan.arrival);
    let report = engine.run_validated(
        &mut device,
        &plan.program,
        &options,
        plan.strip_plan.as_deref(),
    )?;
    let delta = device.snapshot().delta_since(&DeviceSnapshot::default());
    Ok(build_outcome(report, plan, delta, Duration::ZERO))
}

/// A pristine device with `plan`'s program prepared on it: from the plan's
/// shared [`PreparedDevice`], or built here. The first run to reach a shared
/// device builds it and keeps a copy there, the last one takes that copy, so
/// the batch holds it no longer than its runs need it.
fn prepared_device(
    engine: &RuntimeEngine,
    ssd: &SsdConfig,
    faults: FaultConfig,
    plan: &RunPlan,
    counts: &DeviceCounts,
) -> Result<SsdDevice> {
    let build = || -> Result<SsdDevice> {
        let mut device = SsdDevice::with_faults(ssd, faults)?;
        engine.prepare(&mut device, &plan.program)?;
        counts.built.fetch_add(1, Ordering::Relaxed);
        Ok(device)
    };
    let Some(shared) = &plan.prepared else {
        return build();
    };
    // Held while the first run builds, so the others wait for its device.
    let mut slot = shared.lock().unwrap_or_else(|e| e.into_inner());
    slot.remaining = slot.remaining.saturating_sub(1);
    if !std::mem::replace(&mut slot.tried, true) {
        let built = build();
        if let Ok(device) = &built {
            slot.device = (slot.remaining > 0).then(|| device.clone());
        }
        return built;
    }
    match slot.device.take() {
        Some(device) => {
            counts.cloned.fetch_add(1, Ordering::Relaxed);
            if slot.remaining > 0 {
                slot.device = Some(device.clone());
            }
            Ok(device)
        }
        None => {
            drop(slot);
            build()
        }
    }
}

/// Executes a warm plan on one device lane. The request **arrives** at the
/// batch `base` (the lane's stream clock when the batch was submitted) plus
/// its open-loop arrival offset, and issues at `max(previous finish,
/// arrival)`: the stream clock advances through any idle gap, and the
/// arrival-relative wait becomes the outcome's queueing time.
///
/// A batch gives each device's requests to one task ([`run_lane`]), which
/// runs them in its scheduling order; the lane mutex guards the device
/// against a concurrent submission. Every per-device stream stays
/// deterministic and replayable while distinct devices proceed in parallel.
fn execute_on_lane(
    engine: &RuntimeEngine,
    ssd: &SsdConfig,
    slot: &DeviceSlot,
    plan: &RunPlan,
    base: SimTime,
) -> Result<RunOutcome> {
    let mut lane = slot.lane.lock().expect("device-lane mutex poisoned");
    let lane = &mut *lane;
    if lane.device.is_none() {
        lane.device = Some(WarmDevice::new(SsdDevice::with_faults(ssd, slot.faults)?));
    }
    let warm = lane.device.as_mut().expect("device was just installed");
    // SimTime + Duration saturates, so a pathological arrival offset clamps
    // at the end of representable time instead of wrapping the clock.
    let arrival = base + plan.arrival;
    let before = warm.device.snapshot();
    // A request arriving before the previous finish queues; one arriving
    // after it leaves the device idle for the gap.
    let queueing_time = lane.clock.saturating_since(arrival);
    let idle_gap = arrival.saturating_since(lane.clock);
    let issue = lane.clock.max(arrival);
    let report = warm.prepare(engine, plan).and_then(|()| {
        engine.run_validated(
            &mut warm.device,
            &plan.program,
            &plan.options.starting_at(issue),
            plan.strip_plan.as_deref(),
        )
    });
    // A failed run leaves the clock at its issue; the (possibly partially
    // advanced) device stays with the session so the stream can continue or
    // be inspected.
    lane.clock = match &report {
        Ok(run) => issue + run.total_time,
        Err(_) => issue,
    };
    // Lane accounting happens even on a failed request: the device may have
    // partially advanced, and the idle gap was real either way.
    let device = &mut warm.device;
    device.record_lane_request(idle_gap, queueing_time, lane.clock.saturating_since(issue));
    let delta = device.snapshot().delta_since(&before);
    Ok(build_outcome(report?, plan, delta, queueing_time))
}

/// One flow's FIFO sub-queue inside a mixed-weight lane: the request
/// indices in request order, a cursor, and the flow's deficit credit in
/// picoseconds (negative = the flow overdrew its share and sits out rounds
/// until the per-round top-ups pay the debt back).
struct LaneFlow {
    queue: Vec<usize>,
    head: usize,
    credit: i128,
}

impl LaneFlow {
    fn head_index(&self) -> Option<usize> {
        self.queue.get(self.head).copied()
    }
}

/// Serves one device lane's share of a batch, delivering each outcome to
/// `deliver(request index, outcome)`.
///
/// While every request on the lane carries the same weight — the default —
/// the lane is the plain FIFO it has always been: requests execute in
/// request order, bit for bit identical to pre-weight scheduling. Mixed
/// weights switch the lane to **deficit round robin** over per-flow FIFO
/// sub-queues ([`RunRequest::weighted`](crate::RunRequest::weighted)):
///
/// * each round visits the flows in first-appearance order; a flow whose
///   head has *arrived* (on the lane's simulated stream clock) earns
///   [`DEFAULT_DRR_QUANTUM`]` × weight` of credit and serves requests
///   while its credit stays positive, with each request's **actual
///   simulated service time** charged against the credit afterwards (so
///   no a-priori cost model is needed — an expensive request just drives
///   the flow's credit negative and it sits out following rounds);
/// * a flow that drains its queue forfeits leftover credit (standard DRR:
///   credit never accumulates across backlog periods);
/// * when no flow has an arrived head, the lane has gone idle: credits
///   reset (a new busy period starts) and the earliest-arriving head is
///   served, advancing the stream clock through the idle gap — the lane
///   stays work-conserving.
///
/// Everything the scheduler consults — arrivals, the stream clock, service
/// times — is simulated time, so the dispatch order is deterministic and
/// identical for every worker count. Over a saturated stretch each flow's
/// lane busy-time share converges to `weight / Σ weights`.
pub(super) fn run_lane(
    engine: &RuntimeEngine,
    ssd: &SsdConfig,
    slot: &DeviceSlot,
    plans: &[RunPlan],
    indices: &[usize],
    base: SimTime,
    mut deliver: impl FnMut(usize, Result<RunOutcome>),
) {
    let uniform = indices
        .windows(2)
        .all(|w| plans[w[0]].weight == plans[w[1]].weight);
    if uniform {
        for &i in indices {
            deliver(i, execute_on_lane(engine, ssd, slot, &plans[i], base));
        }
        return;
    }

    // Per-flow sub-queues in order of first appearance (deterministic in
    // request order).
    let mut flows: Vec<(u32, LaneFlow)> = Vec::new();
    for &i in indices {
        let key = plans[i].flow;
        match flows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, flow)) => flow.queue.push(i),
            None => flows.push((
                key,
                LaneFlow {
                    queue: vec![i],
                    head: 0,
                    credit: 0,
                },
            )),
        }
    }
    let quantum_ps = DEFAULT_DRR_QUANTUM.as_ps() as i128;
    let arrival = |i: usize| base + plans[i].arrival;
    let clock = || slot.lane.lock().expect("device-lane mutex poisoned").clock;
    // Serves the flow's head request, whose presence the caller checked.
    let mut serve = |flow: &mut LaneFlow| {
        let i = flow.queue[flow.head];
        let outcome = execute_on_lane(engine, ssd, slot, &plans[i], base);
        let service = outcome
            .as_ref()
            .map(|o| o.summary.service_time)
            .unwrap_or(Duration::ZERO);
        flow.head += 1;
        flow.credit -= service.as_ps() as i128;
        deliver(i, outcome);
    };

    let mut remaining = indices.len();
    while remaining > 0 {
        let mut served_this_round = false;
        for (_, flow) in &mut flows {
            let Some(head) = flow.head_index() else {
                continue;
            };
            if arrival(head) > clock() {
                // Not backlogged right now: no top-up, no service. The flow
                // keeps any leftover credit for when its stream resumes.
                continue;
            }
            let weight = plans[head].weight.max(1) as i128;
            flow.credit += quantum_ps * weight;
            while flow.credit > 0 && flow.head_index().is_some_and(|i| arrival(i) <= clock()) {
                serve(flow);
                remaining -= 1;
                served_this_round = true;
            }
            if flow.head_index().is_none() {
                // A drained flow forfeits leftover credit.
                flow.credit = 0;
            }
        }
        if served_this_round || remaining == 0 {
            continue;
        }
        let now = clock();
        let any_eligible = flows
            .iter()
            .any(|(_, f)| f.head_index().is_some_and(|i| arrival(i) <= now));
        if any_eligible {
            // Backlogged flows exist but are all in credit debt: rounds cost
            // no simulated time, so just keep topping up until one goes
            // positive.
            continue;
        }
        // The lane went idle: every remaining head arrives in the future.
        // The busy period is over — credits reset — and the next one opens
        // with the earliest-arriving head (ties break by flow position).
        for (_, flow) in &mut flows {
            flow.credit = 0;
        }
        let next = flows
            .iter()
            .enumerate()
            .filter_map(|(fi, (_, f))| f.head_index().map(|i| (arrival(i), fi)))
            .min()
            .map(|(_, fi)| fi)
            .expect("remaining > 0 implies a nonempty flow");
        serve(&mut flows[next].1);
        remaining -= 1;
    }
}

/// Default deficit-round-robin quantum for weighted device lanes: the
/// per-round credit a weight-1 flow earns (see
/// [`RunRequest::weighted`](crate::RunRequest::weighted)). Small relative to
/// typical service times, so shares track weights smoothly; the exact
/// value only shapes interleaving granularity, not the long-run weight
/// shares.
pub const DEFAULT_DRR_QUANTUM: Duration = Duration::from_ps(10_000_000); // 10 µs
