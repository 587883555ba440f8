//! `figure-sweep`: every `Workload::ALL` x `Policy::ALL` pair on fresh
//! devices — the runs behind `repro all` — submitted as one
//! `Session::submit_batch` per workload, each timed on its own. The
//! measured session is serial; the traced run checks that an nproc-worker
//! session produces identical outputs.

use conduit::{PlanCacheStats, Policy, ProgramId, RunOutcome, RunRequest, RunSummary, Session};
use conduit_types::{SsdConfig, VectorProgram};
use conduit_workloads::{Scale, Workload};

use crate::fidelity::Fidelity;
use crate::metrics::Metrics;
use crate::scenario::{check_batch, nproc, summary_digest, timed_parts, Iter, Scenario, Size};
use crate::spans::Tracer;
use crate::split::{FreshSplit, Pair};

pub struct FigureSweep {
    cfg: SsdConfig,
    scale: Scale,
    session: Session,
    ids: Vec<(Workload, ProgramId)>,
    pairs: Vec<Pair>,
    requests: Vec<RunRequest>,
    /// Warm-up outcomes and their per-request digests.
    warmup: Vec<RunOutcome>,
    reference: Vec<u64>,
    reference_digest: u64,
    plan_after_setup: PlanCacheStats,
    /// Timed iterations on `session`, traced or not.
    iterations: u64,
}

/// The pairs Figure 10 plots carry timelines, exactly as the harness
/// requests them.
fn needs_timeline(w: Workload, p: Policy) -> bool {
    w == Workload::LlamaInference
        && matches!(
            p,
            Policy::BwOffloading | Policy::DmOffloading | Policy::Conduit
        )
}

impl FigureSweep {
    fn programs(&self) -> Vec<(Workload, VectorProgram)> {
        self.ids
            .iter()
            .map(|&(w, id)| (w, self.session.program(id).expect("registered").clone()))
            .collect()
    }
}

impl Scenario for FigureSweep {
    fn setup(size: Size, _seed: u64, tracer: &mut Tracer) -> Self {
        let (cfg, scale) = match size {
            Size::Full => (SsdConfig::default(), Scale::new(4, 1)),
            Size::Smoke => (SsdConfig::small_for_tests(), Scale::test()),
        };
        let mut session = Session::builder(cfg.clone()).serial().build();
        let mut ids = Vec::new();
        for w in Workload::ALL {
            let program = tracer.span("workloads.program", [w.name(), ""], 0, |_| {
                w.program(scale).expect("generators always succeed")
            });
            let id = tracer.span("session.register", [w.name(), ""], 0, |_| {
                session
                    .register(program)
                    .expect("generated programs validate")
            });
            ids.push((w, id));
        }
        let mut pairs = Vec::new();
        let mut requests = Vec::new();
        for &(w, id) in &ids {
            for p in Policy::ALL {
                let timeline = needs_timeline(w, p);
                pairs.push(Pair {
                    workload: w,
                    policy: p,
                    timeline,
                });
                requests.push(RunRequest::new(id, p).timeline(timeline));
            }
        }
        let warmup = tracer.span("warmup", ["figure-sweep", ""], 0, |_| {
            session
                .submit_batch(&requests)
                .expect("fresh runs of generated programs succeed")
        });
        let reference: Vec<u64> = warmup.iter().map(|o| summary_digest(&o.summary)).collect();
        FigureSweep {
            plan_after_setup: session.plan_cache_stats(),
            cfg,
            scale,
            session,
            ids,
            pairs,
            requests,
            reference_digest: crate::scenario::combine(&reference),
            reference,
            warmup,
            iterations: 0,
        }
    }

    fn run(&mut self, tracer: &mut Tracer, first_request: u64) -> Iter {
        self.iterations += 1;
        let (session, requests, pairs) = (&self.session, &self.requests, &self.pairs);
        let chunks = requests.chunks(Policy::ALL.len());
        let (outcomes, parts) = if tracer.enabled() {
            // Request by request, so every request gets a span.
            tracer.span("iteration", ["figure-sweep", ""], first_request, |t| {
                let mut next = first_request;
                timed_parts(chunks, |chunk| {
                    chunk
                        .iter()
                        .map(|request| {
                            next += 1;
                            let pair = &pairs[(next - first_request - 1) as usize];
                            let labels = [pair.workload.name(), pair.policy.name()];
                            t.span("session.submit", labels, next, |_| session.submit(request))
                        })
                        .collect()
                })
            })
        } else {
            timed_parts(chunks, |chunk| session.submit_batch(chunk))
        };
        check_batch(outcomes, &self.reference, parts)
    }

    fn layers(&mut self, tracer: &mut Tracer, m: &mut Metrics) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        // The nproc-worker fan-out must reproduce the serial warm-up.
        let mut pooled = Session::builder(self.cfg.clone()).workers(nproc()).build();
        for (_, p) in self.programs() {
            pooled.register(p).expect("generated programs validate");
        }
        let pooled = check_batch(pooled.submit_batch(&self.requests), &self.reference, vec![]);
        attempted += pooled.attempted;
        failed += pooled.failed;

        let split = FreshSplit::new(&self.cfg, &self.programs(), &self.pairs);
        let passes = split.measure(tracer, m);
        attempted += passes.iter().map(|p| p.requests).sum::<u64>();
        failed += passes.iter().map(|p| p.failed).sum::<u64>();
        let first = &passes[0];
        m.set(
            "ftl.l2p_lookups_per_inst",
            (first.l2p_hits + first.l2p_misses) as f64 / first.instructions as f64,
        );
        m.set(
            "ftl.l2p_hit_rate",
            first.l2p_hits as f64 / (first.l2p_hits + first.l2p_misses).max(1) as f64,
        );

        crate::report_submits(tracer, m);

        let summaries: Vec<_> = self.warmup.iter().map(|o| &o.summary).collect();
        report_summaries(&summaries, m);
        let instructions: u64 = self
            .ids
            .iter()
            .map(|&(_, id)| self.session.program(id).expect("registered").len() as u64)
            .sum();
        m.set("workloads.instructions", instructions as f64);
        let now = self.session.plan_cache_stats();
        m.set("session.plan_misses", self.plan_after_setup.misses as f64);
        m.set(
            "session.plan_hits",
            (now.hits - self.plan_after_setup.hits) as f64 / self.iterations.max(1) as f64,
        );
        (attempted, failed)
    }

    fn fidelity(&self) -> Fidelity {
        Fidelity::from_summaries(|w, p| {
            let i = self
                .pairs
                .iter()
                .position(|x| x.workload == w && x.policy == p)
                .expect("the sweep covers every pair");
            &self.warmup[i].summary
        })
    }

    fn reference_digest(&self) -> u64 {
        self.reference_digest
    }

    fn describe(&self) -> String {
        format!(
            "ssd=paper-default:{} scale=data{}xsteps{} pairs={} submit_batch_workers={} checked_against_workers={}",
            self.cfg == SsdConfig::default(),
            self.scale.data,
            self.scale.steps,
            self.requests.len(),
            self.session.workers(),
            nproc(),
        )
    }
}

/// Device work per instruction and per request from run summaries.
fn report_summaries(summaries: &[&RunSummary], m: &mut Metrics) {
    let instructions: u64 = summaries.iter().map(|s| s.instructions as u64).sum();
    let requests = summaries.len() as f64;
    let sum = |f: &dyn Fn(&RunSummary) -> u64| summaries.iter().map(|s| f(s)).sum::<u64>() as f64;
    m.set(
        "sim.device_ops_per_inst",
        sum(&|s| s.device_delta.device_ops) / instructions as f64,
    );
    m.set(
        "ftl.rewrites_per_req",
        sum(&|s| s.device_delta.rewrites) / requests,
    );
    m.set(
        "ftl.coherence_syncs_per_req",
        sum(&|s| s.device_delta.coherence_syncs) / requests,
    );
    m.set(
        "ftl.gc_invocations",
        sum(&|s| s.device_delta.gc_invocations),
    );
    m.set(
        "ftl.pages_migrated",
        sum(&|s| s.device_delta.pages_migrated),
    );
    let spread = summaries.iter().map(|s| s.device_delta.wear_spread).max();
    m.set("ftl.wear_spread", spread.unwrap_or(0) as f64);
}
