//! `fleet-trace`: the `repro fleet-sweep` tenant mix rebuilt from the
//! public `conduit-traffic` API, generated once into a CTR1 trace, then per
//! iteration decoded with `Trace::from_bytes` and replayed with
//! `Fleet::run_trace` on two shards. Arrivals are open-loop in simulated
//! time; the host drives each replay closed-loop.

use std::time::Instant;

use conduit::{Policy, RunRequest, Session};
use conduit_fleet::{Fleet, FleetReport};
use conduit_sim::DeviceSnapshot;
use conduit_traffic::{ArrivalSpec, SloTarget, TenantSpec, Trace, TrafficMix};
use conduit_types::{Duration, SsdConfig, VectorProgram};
use conduit_workloads::{Scale, Workload};

use crate::fidelity::{self, Fidelity};
use crate::metrics::Metrics;
use crate::scenario::{latency_digest, nproc, Iter, Scenario, Size};
use crate::spans::Tracer;
use crate::split::{FreshSplit, Pair};
use crate::stats::{median, Digest};

const SHARDS: usize = 2;

/// One request's device-service time on a throwaway warm device, so the
/// offered load is set relative to measured capacity.
fn probe_service(cfg: &SsdConfig, workload: Workload, policy: Policy, scale: Scale) -> Duration {
    let mut probe = Session::builder(cfg.clone()).serial().build();
    let id = probe
        .register(workload.program(scale).expect("generators always succeed"))
        .expect("generated programs validate");
    let dev = probe.create_device("probe");
    probe
        .submit(&RunRequest::new(id, policy).on_device(dev))
        .expect("probe run succeeds")
        .summary
        .service_time
}

/// Steady tenants on their own lanes at half their service rate, a 4:1
/// weighted pair sharing one deficit-round-robin lane just past
/// saturation, a hog offered at twice its service rate under a 0.8
/// lane-occupancy cap (admission control sheds it), and a Markov on/off
/// tenant whose draws come from `seed`. Returns the mix, the horizon
/// (`steady_arrivals` steady-a gaps) and the admission window (two gaps,
/// short enough that the hog's backlog trips its cap every window).
pub fn mix(
    cfg: &SsdConfig,
    scale: Scale,
    steady_arrivals: u64,
    seed: u64,
) -> (TrafficMix, Duration, Duration) {
    let steady_a = probe_service(cfg, Workload::Jacobi1d, Policy::Conduit, scale);
    let steady_b = probe_service(cfg, Workload::XorFilter, Policy::Conduit, scale);
    let wfq = probe_service(cfg, Workload::Aes, Policy::Conduit, scale);
    let hog = probe_service(cfg, Workload::LlmTraining, Policy::HostCpu, scale);
    let gap_a = steady_a * 2;
    let deterministic = |interarrival, phase| ArrivalSpec::Deterministic {
        interarrival,
        phase,
    };
    let mix = TrafficMix::new(scale)
        .tenant(TenantSpec::new(
            "steady-a",
            "lane-a",
            Workload::Jacobi1d,
            Policy::Conduit,
            deterministic(gap_a, Duration::ZERO),
        ))
        .tenant(TenantSpec::new(
            "steady-b",
            "lane-b",
            Workload::XorFilter,
            Policy::Conduit,
            deterministic(steady_b * 2, steady_b),
        ))
        .tenant(
            TenantSpec::new(
                "wfq-hi",
                "wfq-lane",
                Workload::Aes,
                Policy::Conduit,
                deterministic(wfq * 3 / 2, Duration::ZERO),
            )
            .weighted(4),
        )
        .tenant(
            TenantSpec::new(
                "wfq-lo",
                "wfq-lane",
                Workload::Aes,
                Policy::Conduit,
                deterministic(wfq * 3 / 2, wfq / 4),
            )
            .weighted(1),
        )
        .tenant(
            TenantSpec::new(
                "hog",
                "hog-lane",
                Workload::LlmTraining,
                Policy::HostCpu,
                deterministic(hog / 2, Duration::ZERO),
            )
            .with_slo(SloTarget {
                max_p99: None,
                max_lane_occupancy: Some(0.8),
            }),
        )
        .tenant(TenantSpec::new(
            "bursty",
            "burst-lane",
            Workload::Heat3d,
            Policy::Conduit,
            ArrivalSpec::MarkovOnOff {
                burst_interarrival: gap_a / 2,
                mean_on: gap_a * 3,
                mean_off: gap_a * 3,
                seed,
            },
        ));
    (mix, gap_a * steady_arrivals, gap_a * 2)
}

/// Digest of every deterministic field of a fleet report.
pub fn report_digest(r: &FleetReport) -> u64 {
    let mut d = Digest::default();
    d.debug(&(r.served, r.shed, r.windows));
    latency_digest(&mut d, &r.latency);
    for t in &r.tenants {
        d.debug(&(&t.name, t.shard, t.served, t.shed));
        latency_digest(&mut d, &t.latency);
    }
    for s in &r.shards {
        d.debug(&(s.devices, s.lanes, s.degraded));
    }
    d.debug(&r.sheds);
    d.value()
}

pub struct FleetTrace {
    cfg: SsdConfig,
    scale: Scale,
    window: Duration,
    bytes: Vec<u8>,
    records: u64,
    /// Instructions of one request of each tenant, in trace tenant order.
    tenant_instructions: Vec<u64>,
    programs: Vec<(Workload, VectorProgram)>,
    pairs: Vec<Pair>,
    /// The warm-up replay's report, device snapshots and summed
    /// plan-cache (hits, misses); set at the end of set-up.
    warmup: Option<(FleetReport, Vec<DeviceSnapshot>, (u64, u64))>,
    reference_digest: u64,
}

impl FleetTrace {
    /// A new fleet; `serial` runs every shard on the calling thread, else
    /// each shard gets an nproc-worker pool.
    fn fleet(&self, serial: bool) -> Fleet {
        let builder = Fleet::builder(self.cfg.clone())
            .shards(SHARDS)
            .admission_window(self.window);
        if serial {
            builder.serial().build()
        } else {
            builder.workers(nproc()).build()
        }
    }

    /// Decodes and replays the trace on a new fleet.
    fn replay(&self, serial: bool, t: &mut Tracer) -> Option<(FleetReport, Fleet)> {
        let trace = t
            .span("traffic.decode", ["", ""], 0, |_| {
                Trace::from_bytes(&self.bytes)
            })
            .ok()?;
        let mut fleet = t.span("fleet.build", ["", ""], 0, |_| self.fleet(serial));
        let report = t
            .span("fleet.run_trace", ["", ""], 0, |_| fleet.run_trace(&trace))
            .ok()?;
        Some((report, fleet))
    }

    /// Checks a replay: every record is served or shed, only the capped
    /// hog sheds, and the outputs equal the warm-up's.
    fn check(&self, report: Option<&FleetReport>, host_s: f64) -> Iter {
        let mut iter = Iter {
            parts: vec![host_s],
            attempted: self.records,
            failed: self.records,
            ..Iter::default()
        };
        let Some(r) = report else {
            return iter;
        };
        iter.digest = report_digest(r);
        iter.instructions = r
            .tenants
            .iter()
            .zip(&self.tenant_instructions)
            .map(|(t, n)| t.served * n)
            .sum();
        let ok = r.served + r.shed == self.records
            && r.sheds.iter().all(|s| s.tenant == "hog")
            && iter.digest == self.reference_digest;
        if ok {
            iter.failed = 0;
        }
        iter
    }
}

fn snapshots(fleet: &Fleet) -> Vec<DeviceSnapshot> {
    (0..fleet.shard_count())
        .flat_map(|s| {
            let session = fleet.shard(s);
            session
                .devices()
                .map(|(h, _)| session.device_snapshot(h))
                .collect::<Vec<_>>()
        })
        .collect()
}

impl Scenario for FleetTrace {
    fn setup(size: Size, seed: u64, tracer: &mut Tracer) -> Self {
        let (cfg, steady_arrivals) = match size {
            Size::Full => (SsdConfig::small_for_tests(), 32),
            Size::Smoke => (SsdConfig::small_for_tests(), 8),
        };
        let scale = Scale::test();
        let (mix, horizon, window) = tracer.span("traffic.probe", ["", ""], 0, |_| {
            mix(&cfg, scale, steady_arrivals, seed)
        });
        let trace = tracer.span("traffic.generate", ["", ""], 0, |_| {
            mix.generate(horizon).expect("the mix is valid")
        });
        let bytes = tracer.span("traffic.encode", ["", ""], 0, |_| trace.to_bytes());
        let programs: Vec<(Workload, VectorProgram)> =
            tracer.span("workloads.program", ["", ""], 0, |_| {
                let mut out: Vec<(Workload, VectorProgram)> = Vec::new();
                for t in &mix.tenants {
                    if !out.iter().any(|(w, _)| *w == t.workload) {
                        out.push((
                            t.workload,
                            t.workload.program(scale).expect("generators succeed"),
                        ));
                    }
                }
                out
            });
        let tenant_instructions = mix
            .tenants
            .iter()
            .map(|t| {
                programs
                    .iter()
                    .find(|(w, _)| *w == t.workload)
                    .map_or(0, |(_, p)| p.len() as u64)
            })
            .collect();
        let mut pairs: Vec<Pair> = Vec::new();
        for t in &mix.tenants {
            let pair = Pair {
                workload: t.workload,
                policy: t.policy,
                timeline: false,
            };
            if !pairs.contains(&pair) {
                pairs.push(pair);
            }
        }
        let mut bench = FleetTrace {
            cfg,
            scale,
            window,
            records: trace.records.len() as u64,
            bytes,
            tenant_instructions,
            programs,
            pairs,
            warmup: None,
            reference_digest: 0,
        };
        let (report, fleet) = tracer.span("warmup", ["fleet-trace", ""], 0, |_| {
            bench
                .replay(true, &mut Tracer::off())
                .expect("the generated trace replays cleanly")
        });
        let plan = (0..fleet.shard_count()).fold((0, 0), |(h, m), s| {
            let stats = fleet.shard(s).plan_cache_stats();
            (h + stats.hits, m + stats.misses)
        });
        bench.reference_digest = report_digest(&report);
        bench.warmup = Some((report, snapshots(&fleet), plan));
        bench
    }

    fn run(&mut self, tracer: &mut Tracer, first_request: u64) -> Iter {
        let t = Instant::now();
        let replay = tracer.span("iteration", ["fleet-trace", ""], first_request, |t| {
            self.replay(true, t)
        });
        let host_s = t.elapsed().as_secs_f64();
        self.check(replay.as_ref().map(|r| &r.0), host_s)
    }

    fn layers(&mut self, tracer: &mut Tracer, m: &mut Metrics) -> (u64, u64) {
        // A fleet with nproc-worker shard pools must reproduce the serial
        // warm-up exactly.
        let pooled = self.replay(false, &mut Tracer::off());
        let check = self.check(pooled.as_ref().map(|r| &r.0), 0.0);
        let (mut attempted, mut failed) = (check.attempted, check.failed);

        let split = FreshSplit::new(&self.cfg, &self.programs, &self.pairs);
        let passes = split.measure(tracer, m);
        attempted += passes.iter().map(|p| p.requests).sum::<u64>();
        failed += passes.iter().map(|p| p.failed).sum::<u64>();

        let (r, devices, plan) = self.warmup.as_ref().expect("set-up ran the warm-up");
        let instructions: u64 = r
            .tenants
            .iter()
            .zip(&self.tenant_instructions)
            .map(|(t, n)| t.served * n)
            .sum();
        crate::report_devices(devices, r.served, instructions, m);
        let program_insts: usize = self.programs.iter().map(|(_, p)| p.len()).sum();
        m.set("workloads.instructions", program_insts as f64);
        m.set("session.plan_hits", plan.0 as f64);
        m.set("session.plan_misses", plan.1 as f64);
        m.set(
            "traffic.generate_ms",
            median(&setup_durations(tracer, "traffic.generate")) / 1e6,
        );
        m.set(
            "traffic.encode_us",
            median(&setup_durations(tracer, "traffic.encode")) / 1e3,
        );
        m.set(
            "traffic.decode_us",
            median(&tracer.durations("traffic.decode")) / 1e3,
        );
        m.set("traffic.records", self.records as f64);
        m.set(
            "fleet.run_trace_ms",
            median(&tracer.durations("fleet.run_trace")) / 1e6,
        );
        m.set("fleet.served", r.served as f64);
        m.set("fleet.shed", r.shed as f64);
        m.set("fleet.windows", r.windows as f64);
        m.set("fleet.useful_frac", r.served as f64 / self.records as f64);
        let occupancy: Vec<f64> = r.shards.iter().map(|s| s.lanes.occupancy()).collect();
        m.set(
            "fleet.lane_occupancy_max",
            occupancy.iter().copied().fold(f64::MIN, f64::max),
        );
        m.set(
            "fleet.lane_occupancy_min",
            occupancy.iter().copied().fold(f64::MAX, f64::min),
        );
        m.set("fleet.sim_p50_ms", r.latency.percentile(0.50).as_ms());
        m.set("fleet.sim_p99_ms", r.latency.percentile(0.99).as_ms());
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
            "ssd=small_for_tests scale=data{}xsteps{} shards={SHARDS} serial=true checked_against_workers_per_shard={} records={} trace_bytes={}",
            self.scale.data,
            self.scale.steps,
            nproc(),
            self.records,
            self.bytes.len(),
        )
    }
}

/// Durations of the spans called `name` made during set-up.
fn setup_durations(tracer: &Tracer, name: &str) -> Vec<f64> {
    tracer.group_sums("setup", name)
}
