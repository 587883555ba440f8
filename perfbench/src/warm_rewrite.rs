//! `warm-rewrite`: tenants on named warm devices, each alternating an
//! SSD-internal policy with the host CPU so every request flushes the dirty
//! pages its predecessor left (coherence syncs, out-of-place rewrites, L2P
//! traffic). One thread submits request by request with `Session::submit`.
//! Each iteration resets every device first, well before its free pool
//! runs out, so iterations are identical and garbage collection stays out
//! of the measured traffic.

use std::time::Instant;

use conduit::{DeviceHandle, PlanCacheStats, Policy, RunOutcome, RunRequest, Session};
use conduit_sim::DeviceSnapshot;
use conduit_types::{DeviceHealth, Result, SsdConfig, VectorProgram};
use conduit_workloads::{Scale, Workload};

use crate::fidelity::{self, Fidelity};
use crate::metrics::Metrics;
use crate::scenario::{check_batch, nproc, summary_digest, timed_parts, Iter, Scenario, Size};
use crate::spans::Tracer;
use crate::split::{FreshSplit, Pair};
use crate::stats::median;

/// Named warm devices.
const DEVICES: usize = 3;
/// SSD-internal policy of each tenant, by tenant index parity.
const INTERNAL: [Policy; 2] = [Policy::Conduit, Policy::PudSsd];

/// splitmix64: the seed's only consumer.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Device of tenant `t` (tenant `t` runs `Workload::ALL[t]`): two tenants
/// share each device.
fn device_of(t: usize) -> usize {
    t % DEVICES
}

/// The seeded request stream of one iteration, as `(tenant, policy)` in
/// submission order: `rounds` rounds in which every tenant submits once,
/// in a freshly shuffled order, so every seed does the same work in a
/// different interleaving. Each tenant alternates its internal policy with
/// `HostCpu`.
pub fn schedule(seed: u64, rounds: usize) -> Vec<(usize, Policy)> {
    let mut state = seed;
    let mut steps = Vec::with_capacity(rounds * 6);
    for round in 0..rounds {
        let mut order = [0usize, 1, 2, 3, 4, 5];
        for i in (1..order.len()).rev() {
            order.swap(i, (next(&mut state) % (i as u64 + 1)) as usize);
        }
        let policy = |t: usize| {
            if round % 2 == 0 {
                INTERNAL[t % 2]
            } else {
                Policy::HostCpu
            }
        };
        steps.extend(order.iter().map(|&t| (t, policy(t))));
    }
    steps
}

pub struct WarmRewrite {
    cfg: SsdConfig,
    scale: Scale,
    session: Session,
    devices: Vec<DeviceHandle>,
    steps: Vec<(usize, Policy)>,
    /// `[workload, policy]` of each step, the labels of its spans.
    labels: Vec<[&'static str; 2]>,
    requests: Vec<RunRequest>,
    programs: Vec<(Workload, VectorProgram)>,
    warmup: Vec<RunOutcome>,
    /// Device snapshots at the end of the warm-up iteration.
    warmup_devices: Vec<DeviceSnapshot>,
    reference: Vec<u64>,
    reference_digest: u64,
    plan_after_setup: PlanCacheStats,
    /// Timed iterations on `session`, traced or not.
    iterations: u64,
}

impl WarmRewrite {
    /// Resets every device, then submits the iteration's requests one by
    /// one, with a span around each public call. Each round (six requests)
    /// is timed on its own; the resets count with the first.
    fn iterate(
        session: &Session,
        devices: &[DeviceHandle],
        requests: &[RunRequest],
        labels: &[[&'static str; 2]],
        tracer: &mut Tracer,
        first_request: u64,
    ) -> (Result<Vec<RunOutcome>>, Vec<f64>) {
        let t = Instant::now();
        for &d in devices {
            tracer.span("session.reset_device", ["", ""], 0, |_| {
                session.reset_device(d)
            });
        }
        let reset_s = t.elapsed().as_secs_f64();
        let mut next = 0;
        let (outcomes, mut parts) = timed_parts(requests.chunks(Workload::ALL.len()), |round| {
            round
                .iter()
                .map(|request| {
                    next += 1;
                    tracer.span(
                        "session.submit",
                        labels[next - 1],
                        first_request + next as u64,
                        |_| session.submit(request),
                    )
                })
                .collect()
        });
        if let Some(first) = parts.first_mut() {
            *first += reset_s;
        }
        (outcomes, parts)
    }

    /// Devices that did not end the iteration healthy.
    fn unhealthy(&self) -> u64 {
        self.devices
            .iter()
            .filter(|&&d| self.session.device_snapshot(d).health != DeviceHealth::Healthy)
            .count() as u64
    }
}

impl Scenario for WarmRewrite {
    fn setup(size: Size, seed: u64, tracer: &mut Tracer) -> Self {
        let cfg = SsdConfig::small_for_tests();
        let scale = Scale::test();
        let rounds = match size {
            Size::Full => 80,
            Size::Smoke => 10,
        };
        let mut session = Session::builder(cfg.clone()).serial().build();
        let mut programs = Vec::new();
        let mut ids = Vec::new();
        for w in Workload::ALL {
            let program = tracer.span("workloads.program", [w.name(), ""], 0, |_| {
                w.program(scale).expect("generators always succeed")
            });
            programs.push((w, program.clone()));
            let id = tracer.span("session.register", [w.name(), ""], 0, |_| {
                session
                    .register(program)
                    .expect("generated programs validate")
            });
            ids.push(id);
        }
        let devices: Vec<DeviceHandle> = (0..DEVICES)
            .map(|d| session.create_device(&format!("warm-{d}")))
            .collect();
        let steps = schedule(seed, rounds);
        let requests: Vec<RunRequest> = steps
            .iter()
            .map(|&(t, p)| RunRequest::new(ids[t], p).on_device(devices[device_of(t)]))
            .collect();
        let labels: Vec<[&'static str; 2]> = steps
            .iter()
            .map(|&(t, p)| [Workload::ALL[t].name(), p.name()])
            .collect();
        let warmup = tracer.span("warmup", ["warm-rewrite", ""], 0, |_| {
            Self::iterate(
                &session,
                &devices,
                &requests,
                &labels,
                &mut Tracer::off(),
                0,
            )
            .0
            .expect("warm runs of generated programs succeed")
        });
        let warmup_devices = devices
            .iter()
            .map(|&d| session.device_snapshot(d))
            .collect();
        let reference: Vec<u64> = warmup.iter().map(|o| summary_digest(&o.summary)).collect();
        WarmRewrite {
            plan_after_setup: session.plan_cache_stats(),
            iterations: 0,
            cfg,
            scale,
            session,
            devices,
            steps,
            labels,
            requests,
            programs,
            warmup,
            warmup_devices,
            reference_digest: crate::scenario::combine(&reference),
            reference,
        }
    }

    fn run(&mut self, tracer: &mut Tracer, first_request: u64) -> Iter {
        self.iterations += 1;
        let (outcomes, parts) =
            tracer.span("iteration", ["warm-rewrite", ""], first_request, |t| {
                Self::iterate(
                    &self.session,
                    &self.devices,
                    &self.requests,
                    &self.labels,
                    t,
                    first_request,
                )
            });
        let mut iter = check_batch(outcomes, &self.reference, parts);
        iter.failed += self.unhealthy();
        iter
    }

    fn layers(&mut self, tracer: &mut Tracer, m: &mut Metrics) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        // The same stream on a session with an nproc-thread evaluation pool
        // must reproduce the serial warm-up exactly.
        let mut pooled = Session::builder(self.cfg.clone()).workers(nproc()).build();
        let mut ids = Vec::new();
        for (_, p) in &self.programs {
            ids.push(
                pooled
                    .register(p.clone())
                    .expect("generated programs validate"),
            );
        }
        let devices: Vec<DeviceHandle> = (0..DEVICES)
            .map(|d| pooled.create_device(&format!("warm-{d}")))
            .collect();
        let requests: Vec<RunRequest> = self
            .steps
            .iter()
            .map(|&(t, p)| RunRequest::new(ids[t], p).on_device(devices[device_of(t)]))
            .collect();
        let (outcomes, _) = Self::iterate(
            &pooled,
            &devices,
            &requests,
            &self.labels,
            &mut Tracer::off(),
            0,
        );
        let check = check_batch(outcomes, &self.reference, vec![]);
        attempted += check.attempted;
        failed += check.failed;

        let mut pairs = Vec::new();
        for (t, w) in Workload::ALL.iter().enumerate() {
            for policy in [INTERNAL[t % 2], Policy::HostCpu] {
                pairs.push(Pair {
                    workload: *w,
                    policy,
                    timeline: false,
                });
            }
        }
        let split = FreshSplit::new(&self.cfg, &self.programs, &pairs);
        let passes = split.measure(tracer, m);
        attempted += passes.iter().map(|p| p.requests).sum::<u64>();
        failed += passes.iter().map(|p| p.failed).sum::<u64>();

        crate::report_submits(tracer, m);
        m.set(
            "session.reset_device_us",
            median(&tracer.durations("session.reset_device")) / 1e3,
        );

        // Devices are reset at the start of every iteration, so their
        // snapshots after the warm-up cover exactly one iteration.
        let instructions: u64 = self
            .warmup
            .iter()
            .map(|o| o.summary.instructions as u64)
            .sum();
        crate::report_devices(
            &self.warmup_devices,
            self.warmup.len() as u64,
            instructions,
            m,
        );
        let programs: usize = self.programs.iter().map(|(_, p)| p.len()).sum();
        m.set("workloads.instructions", programs as f64);
        let now = self.session.plan_cache_stats();
        m.set("session.plan_misses", self.plan_after_setup.misses as f64);
        m.set(
            "session.plan_hits",
            (now.hits - self.plan_after_setup.hits) as f64 / self.iterations.max(1) as f64,
        );
        (attempted, failed)
    }

    fn fidelity(&self) -> Fidelity {
        fidelity::reference()
    }

    fn reference_digest(&self) -> u64 {
        self.reference_digest
    }

    fn describe(&self) -> String {
        format!(
            "ssd=small_for_tests scale=data{}xsteps{} devices={DEVICES} requests_per_iteration={} submit_threads=1",
            self.scale.data,
            self.scale.steps,
            self.requests.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_balanced_and_alternates_per_tenant() {
        assert_eq!(schedule(7, 20), schedule(7, 20));
        assert_ne!(schedule(7, 20), schedule(8, 20));
        let steps = schedule(7, 30);
        assert_eq!(steps.len(), 180);
        for t in 0..6 {
            let policies: Vec<Policy> = steps.iter().filter(|s| s.0 == t).map(|s| s.1).collect();
            assert_eq!(policies.len(), 30);
            for (k, p) in policies.iter().enumerate() {
                let want = if k % 2 == 0 {
                    INTERNAL[t % 2]
                } else {
                    Policy::HostCpu
                };
                assert_eq!(*p, want);
            }
        }
    }
}
