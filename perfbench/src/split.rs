//! One fresh run, split from outside into its public steps:
//! `SsdDevice::new` -> `RuntimeEngine::prepare` -> `StripPlan::plan` ->
//! `RuntimeEngine::run_with_plan`. Each request is also submitted fresh
//! through a serial `Session`, and the split must reproduce the session's
//! `total_time` exactly.

use conduit::{
    CostFunction, OffloadMix, Policy, ProgramId, RunOptions, RunRequest, RuntimeEngine, Session,
    StripPlan,
};
use conduit_sim::SsdDevice;
use conduit_types::{HostConfig, SsdConfig, VectorProgram};
use conduit_workloads::Workload;

use crate::metrics::Metrics;
use crate::spans::Tracer;
use crate::stats::median;

/// Split passes per traced run.
const PASSES: usize = 3;
/// The timed steps of one fresh run, in order.
const STEPS: [&str; 4] = [
    "sim.device_new",
    "engine.prepare",
    "batch.plan",
    "engine.run_with_plan",
];

/// One (workload, policy) request to split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    pub workload: Workload,
    pub policy: Policy,
    pub timeline: bool,
}

/// What one pass over every pair measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SplitPass {
    /// Host time of the fresh session submits.
    pub submit_ns: u64,
    /// Host time of device construction, prepare and run together.
    pub parts_ns: u64,
    pub run_ns: u64,
    pub instructions: u64,
    pub requests: u64,
    /// Requests that returned an error or whose split disagreed with the
    /// session.
    pub failed: u64,
    pub l2p_hits: u64,
    pub l2p_misses: u64,
    /// Placement counts of the Conduit runs.
    pub conduit_mix: OffloadMix,
    /// Mean offloader overhead of each Conduit run, microseconds.
    pub conduit_overhead_us: Vec<f64>,
}

pub struct FreshSplit {
    cfg: SsdConfig,
    engine: RuntimeEngine,
    session: Session,
    items: Vec<(Pair, ProgramId)>,
}

impl FreshSplit {
    /// `programs` holds one program per workload the pairs name.
    pub fn new(cfg: &SsdConfig, programs: &[(Workload, VectorProgram)], pairs: &[Pair]) -> Self {
        let mut session = Session::builder(cfg.clone()).serial().build();
        let ids: Vec<(Workload, ProgramId)> = programs
            .iter()
            .map(|(w, p)| {
                (
                    *w,
                    session
                        .register(p.clone())
                        .expect("generated programs validate"),
                )
            })
            .collect();
        let items = pairs
            .iter()
            .map(|pair| {
                let id = ids
                    .iter()
                    .find(|(w, _)| *w == pair.workload)
                    .expect("every pair's workload has a program")
                    .1;
                (*pair, id)
            })
            .collect();
        FreshSplit {
            cfg: cfg.clone(),
            engine: RuntimeEngine::with_host(cfg, &HostConfig::default()),
            session,
            items,
        }
    }

    /// Runs the split passes and sets the split's per-layer metrics: step
    /// times, their coverage of the session's submit, and the Conduit
    /// runs' placement and overhead. Returns the passes.
    pub fn measure(&self, tracer: &mut Tracer, m: &mut Metrics) -> Vec<SplitPass> {
        let passes: Vec<SplitPass> = (0..PASSES)
            .map(|k| self.pass(tracer, 1_000_000_000 + (k * self.items.len()) as u64))
            .collect();
        let us = |name| median(&tracer.durations(name)) / 1e3;
        m.set("sim.device_new_us", us("sim.device_new"));
        m.set("engine.prepare_us", us("engine.prepare"));
        m.set("batch.plan_us", us("batch.plan"));
        let per_pass =
            |f: &dyn Fn(&SplitPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        m.set(
            "engine.run_ns_per_inst",
            per_pass(&|p| p.run_ns as f64 / p.instructions as f64),
        );
        m.set(
            "session.unattributed_frac",
            per_pass(&|p| (p.submit_ns as f64 - p.parts_ns as f64) / p.submit_ns as f64),
        );
        let p = &passes[0];
        let (isp, pud, ifp, host) = p.conduit_mix.fractions();
        m.set("core.offload_frac.isp", isp);
        m.set("core.offload_frac.pud", pud);
        m.set("core.offload_frac.ifp", ifp);
        m.set("core.offload_frac.host", host);
        let n = p.conduit_overhead_us.len().max(1) as f64;
        m.set(
            "core.overhead_mean_us",
            p.conduit_overhead_us.iter().sum::<f64>() / n,
        );
        let step_ns = |name| tracer.durations(name).iter().sum::<f64>();
        let total: f64 = STEPS.iter().map(|&s| step_ns(s)).sum();
        for name in STEPS {
            println!(
                "# fresh-run split {name}: {:.1}% of split host time",
                step_ns(name) / total * 100.0
            );
        }
        passes
    }

    /// Splits every pair once, recording spans; request ids start at
    /// `first_request`.
    fn pass(&self, tracer: &mut Tracer, first_request: u64) -> SplitPass {
        let start = tracer.spans().len();
        let mut out = SplitPass::default();
        for (k, &(pair, id)) in self.items.iter().enumerate() {
            let labels = [pair.workload.name(), pair.policy.name()];
            let ok = tracer.span("split.request", labels, first_request + k as u64, |t| {
                self.split_one(t, pair, id, labels, &mut out)
            });
            out.requests += 1;
            out.failed += u64::from(!ok);
        }
        for s in &tracer.spans()[start..] {
            match s.name {
                "split.submit" => out.submit_ns += s.ns(),
                "engine.run_with_plan" => {
                    out.run_ns += s.ns();
                    out.parts_ns += s.ns();
                }
                "sim.device_new" | "engine.prepare" => out.parts_ns += s.ns(),
                _ => {}
            }
        }
        out
    }

    fn split_one(
        &self,
        t: &mut Tracer,
        pair: Pair,
        id: ProgramId,
        labels: [&'static str; 2],
        out: &mut SplitPass,
    ) -> bool {
        let request = RunRequest::new(id, pair.policy).timeline(pair.timeline);
        let Ok(outcome) = t.span("split.submit", labels, 0, |_| self.session.submit(&request))
        else {
            return false;
        };
        let program = self.session.program(id).expect("registered above");
        let Ok(mut device) = t.span("sim.device_new", labels, 0, |_| SsdDevice::new(&self.cfg))
        else {
            return false;
        };
        if t.span("engine.prepare", labels, 0, |_| {
            self.engine.prepare(&mut device, program)
        })
        .is_err()
        {
            return false;
        }
        let plan = t.span("batch.plan", labels, 0, |_| {
            StripPlan::plan(program, pair.policy, CostFunction::conduit())
        });
        let mut options = RunOptions::new(pair.policy);
        if !pair.timeline {
            options = options.without_timeline();
        }
        let Ok(report) = t.span("engine.run_with_plan", labels, 0, |_| {
            self.engine
                .run_with_plan(&mut device, program, &options, Some(&plan))
        }) else {
            return false;
        };
        let snap = device.snapshot();
        out.l2p_hits += snap.l2p_hits;
        out.l2p_misses += snap.l2p_misses;
        out.instructions += report.instructions as u64;
        if pair.policy == Policy::Conduit {
            let mix = &mut out.conduit_mix;
            mix.isp += report.offload_mix.isp;
            mix.pud += report.offload_mix.pud;
            mix.ifp += report.offload_mix.ifp;
            mix.host += report.offload_mix.host;
            out.conduit_overhead_us.push(report.overhead.mean().as_us());
        }
        report.total_time == outcome.summary.total_time
            && report.offload_mix == outcome.summary.offload_mix
    }
}
