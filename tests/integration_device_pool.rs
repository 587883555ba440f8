//! The device-pool Session API: named warm devices, per-device FIFO lanes,
//! stream clocks and serializable device checkpoints.
//!
//! These properties are pinned down here:
//!
//! 1. **Per-device determinism**: a mixed batch across three warm devices
//!    plus fresh requests is bit-identical whether the lanes run in
//!    parallel on worker threads or the whole batch runs serially on the
//!    calling thread.
//! 2. **Checkpoint fidelity**: exporting a device mid-stream, importing it
//!    into a fresh session and replaying the remainder matches the
//!    uninterrupted run exactly.
//! 3. **Format stability**: a committed golden checkpoint
//!    (`tests/golden/device_checkpoint_v3.bin`) pins the byte-exact
//!    encoding of a canonical aged device, and the same bytes relabelled
//!    with any other checkpoint version are rejected with a typed error. If
//!    an intentional format change breaks
//!    `golden_file_pins_the_checkpoint_format`, bump
//!    `DEVICE_STATE_FORMAT_VERSION` / `DEVICE_CHECKPOINT_FORMAT_VERSION`
//!    and regenerate with:
//!
//!    ```text
//!    CONDUIT_REGEN_GOLDEN=1 cargo test --test integration_device_pool
//!    ```
//! 4. **Scheduling**: on two workers, lane tasks come first in the batch's
//!    task order, so a batch whose fresh backlog dwarfs its lane work still
//!    serves the lanes promptly — without changing any simulated result
//!    (everything stays bit-identical to `.serial()` submission).
//! 5. **Open-loop arrivals**: explicit `RunRequest::arriving_at` offsets
//!    produce the same summaries on every worker count.
//! 6. **One run per request**: every warm outcome accounts exactly one lane
//!    request, also under arrivals and weighted lanes.

use conduit::{DeviceHandle, Policy, ProgramId, RunOutcome, RunRequest, Session};
use conduit_types::{
    Duration, LogicalPageId, OpType, Operand, SimTime, SsdConfig, VectorInst, VectorProgram,
};

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn golden_path() -> std::path::PathBuf {
    golden_dir().join("device_checkpoint_v3.bin")
}

/// A program whose store forces out-of-place writes on every run.
fn writer_program() -> VectorProgram {
    let mut prog = VectorProgram::new("writer");
    let x = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    prog.push(
        VectorInst::binary(1, OpType::Add, Operand::result(x), Operand::page(8))
            .store_to(LogicalPageId::new(12)),
    );
    prog
}

/// A second program touching different pages, so tenants' footprints
/// differ.
fn reader_program() -> VectorProgram {
    let mut prog = VectorProgram::new("reader");
    let a = prog.push_binary(OpType::And, Operand::page(16), Operand::page(20));
    prog.push_binary(OpType::Mul, Operand::result(a), Operand::page(24));
    prog
}

/// The canonical mixed batch: three tenants with interleaved multi-request
/// lanes, plus fresh requests fanned out alongside.
fn mixed_batch(
    writer: ProgramId,
    reader: ProgramId,
    a: DeviceHandle,
    b: DeviceHandle,
    c: DeviceHandle,
) -> Vec<RunRequest> {
    vec![
        RunRequest::new(writer, Policy::Conduit).on_device(a),
        RunRequest::new(reader, Policy::Conduit),
        RunRequest::new(writer, Policy::PudSsd).on_device(b),
        RunRequest::new(reader, Policy::IspOnly).on_device(c),
        RunRequest::new(writer, Policy::HostCpu).on_device(a),
        RunRequest::new(reader, Policy::Ideal),
        RunRequest::new(reader, Policy::Conduit).on_device(b),
        RunRequest::new(writer, Policy::Conduit).on_device(c),
        RunRequest::new(writer, Policy::PudSsd).on_device(a),
        RunRequest::new(reader, Policy::HostCpu),
    ]
}

fn pool_session(
    configure: impl FnOnce(conduit::SessionBuilder) -> conduit::SessionBuilder,
) -> Session {
    configure(Session::builder(SsdConfig::small_for_tests())).build()
}

#[test]
fn three_device_mixed_batch_is_bit_identical_to_serial_submission() {
    let run = |mut session: Session| -> (Vec<RunOutcome>, Vec<_>) {
        let writer = session.register(writer_program()).unwrap();
        let reader = session.register(reader_program()).unwrap();
        let a = session.create_device("tenant-a");
        let b = session.create_device("tenant-b");
        let c = session.create_device("tenant-c");
        let outcomes = session
            .submit_batch(&mixed_batch(writer, reader, a, b, c))
            .unwrap();
        let snapshots = [a, b, c]
            .into_iter()
            .map(|d| (session.device_snapshot(d), session.device_clock(d)))
            .collect();
        (outcomes, snapshots)
    };

    let (parallel, parallel_snaps) = run(pool_session(|b| b.workers(4)));
    let (serial, serial_snaps) = run(pool_session(|b| b.serial()));
    assert_eq!(
        parallel, serial,
        "parallel lanes must be bit-identical to serial submission"
    );
    assert_eq!(parallel_snaps, serial_snaps);

    // Distinct devices never see each other's queueing: the first request
    // of every lane found it idle.
    for first_of_lane in [0, 2, 3] {
        assert_eq!(
            parallel[first_of_lane].summary.queueing_time,
            Duration::ZERO
        );
    }
    // Within tenant-a's lane, queueing accumulates in request order.
    assert_eq!(
        parallel[4].summary.queueing_time,
        parallel[0].summary.service_time
    );
    assert_eq!(
        parallel[8].summary.queueing_time,
        parallel[0].summary.service_time + parallel[4].summary.service_time
    );
    // Fresh requests never queue.
    for fresh in [1, 5, 9] {
        assert_eq!(parallel[fresh].summary.queueing_time, Duration::ZERO);
    }
}

#[test]
fn repeated_batches_are_replayable_across_sessions() {
    let run = |mut session: Session| -> Vec<RunOutcome> {
        let writer = session.register(writer_program()).unwrap();
        let reader = session.register(reader_program()).unwrap();
        let a = session.create_device("tenant-a");
        let b = session.create_device("tenant-b");
        let c = session.create_device("tenant-c");
        let mut all = Vec::new();
        for _ in 0..3 {
            all.extend(
                session
                    .submit_batch(&mixed_batch(writer, reader, a, b, c))
                    .unwrap(),
            );
        }
        all
    };
    let first = run(pool_session(|b| b.workers(3)));
    let second = run(pool_session(|b| b.workers(8)));
    assert_eq!(
        first, second,
        "device aging across batches must not depend on the worker count"
    );
    // Later batches start where the previous ones left the stream clocks:
    // the second batch's lane heads queue behind nothing (their arrival is
    // the advanced clock), but their deltas still differ from round one
    // because the devices warmed up.
    assert_eq!(first[10].summary.queueing_time, Duration::ZERO);
}

#[test]
fn checkpointed_device_replays_identically_to_the_uninterrupted_stream() {
    let mut session = pool_session(|b| b);
    let writer = session.register(writer_program()).unwrap();
    let device = session.create_device("tenant");
    let policies = [
        Policy::PudSsd,
        Policy::HostCpu,
        Policy::Conduit,
        Policy::IspOnly,
        Policy::PudSsd,
        Policy::HostCpu,
    ];

    // Uninterrupted run: all six requests on one session.
    let uninterrupted: Vec<RunOutcome> = policies
        .iter()
        .map(|&p| {
            session
                .submit(&RunRequest::new(writer, p).on_device(device))
                .unwrap()
        })
        .collect();

    // Interrupted run: replay the first three, checkpoint, revive in a new
    // session ("process"), replay the rest.
    let mut before = pool_session(|b| b);
    let writer_before = before.register(writer_program()).unwrap();
    let dev_before = before.create_device("tenant");
    let mut interrupted: Vec<RunOutcome> = policies[..3]
        .iter()
        .map(|&p| {
            before
                .submit(&RunRequest::new(writer_before, p).on_device(dev_before))
                .unwrap()
        })
        .collect();
    let checkpoint = before.export_device(dev_before).unwrap();
    drop(before);

    let mut after = pool_session(|b| b);
    let writer_after = after.register(writer_program()).unwrap();
    let dev_after = after.import_device("tenant", &checkpoint).unwrap();
    interrupted.extend(policies[3..].iter().map(|&p| {
        after
            .submit(&RunRequest::new(writer_after, p).on_device(dev_after))
            .unwrap()
    }));

    assert_eq!(
        interrupted, uninterrupted,
        "a checkpoint round-trip must not change the stream's results"
    );
    assert_eq!(
        after.device_snapshot(dev_after),
        session.device_snapshot(device)
    );
    assert_eq!(after.device_clock(dev_after), session.device_clock(device));
}

/// Lane priority on two workers: one batch of 6,400 fresh requests plus 4
/// one-request lanes, the lanes submitted last.
///
/// Lane priority comes from task order: a batch's lane tasks precede its
/// fresh tasks whatever the request order, and the worker threads take
/// tasks in that order. So the lanes' *wall-clock* completion does not
/// wait for the fresh backlog to drain: the lanes finish while the fresh
/// requests are still running. (Tasks taken in request order would serve
/// the lanes last — a pure scheduler artifact.) The *simulated* lane
/// queueing, meanwhile, is arrival-relative and scheduler-independent:
/// each one-request lane finds its device idle, so its `queueing_time` is
/// exactly zero (the metric measures device contention only, never thread
/// contention), and the whole batch stays bit-identical to `.serial()`
/// submission.
#[test]
fn lanes_are_served_ahead_of_a_heavy_fresh_backlog_on_two_workers() {
    const FRESH: usize = 6_400;
    let build = |configure: fn(conduit::SessionBuilder) -> conduit::SessionBuilder| {
        let mut session = pool_session(configure);
        let writer = session.register(writer_program()).unwrap();
        let devices: Vec<DeviceHandle> = (0..4)
            .map(|i| session.create_device(&format!("tenant-{i}")))
            .collect();
        // The fresh backlog first, then 4 one-request lanes — the worst
        // ordering for a FIFO scheduler.
        let mut requests: Vec<RunRequest> = (0..FRESH)
            .map(|_| RunRequest::new(writer, Policy::Conduit))
            .collect();
        requests.extend(
            devices
                .iter()
                .map(|&d| RunRequest::new(writer, Policy::Conduit).on_device(d)),
        );
        (session, devices, requests)
    };

    let (session, devices, requests) = build(|b| b.workers(2));
    let started = std::time::Instant::now();
    let (outcomes, lanes_done_after) = std::thread::scope(|scope| {
        let worker = scope.spawn(|| session.submit_batch(&requests).unwrap());
        // Poll the stream clocks: a lane's clock leaves zero exactly when
        // its (only) request has been served.
        let mut lanes_done_after = None;
        while lanes_done_after.is_none() {
            if devices
                .iter()
                .all(|&d| session.device_clock(d) > SimTime::ZERO)
            {
                lanes_done_after = Some(started.elapsed());
            } else if worker.is_finished() {
                // The whole batch finished before we observed the lanes —
                // record "at the very end" so the assertion below fails
                // with a meaningful ratio rather than hanging.
                lanes_done_after = Some(started.elapsed());
            } else {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        }
        (worker.join().unwrap(), lanes_done_after.unwrap())
    });
    let total = started.elapsed();

    // Wall-clock fairness: the four lanes were served long before the
    // fresh backlog drained. (The generous factor keeps the
    // assertion robust on noisy CI machines; the old FIFO pool sat at
    // ~100% of the batch time.)
    assert!(
        lanes_done_after < total / 2,
        "lanes finished after {lanes_done_after:?} of a {total:?} batch — \
         lane work starved behind the fresh backlog"
    );

    // Simulated queueing is scheduler-free: every one-request lane found
    // its device idle.
    for lane_outcome in &outcomes[FRESH..] {
        assert_eq!(lane_outcome.summary.queueing_time, Duration::ZERO);
        assert_eq!(lane_outcome.summary.device_delta.lane_requests, 1);
    }

    // And nothing about the schedule leaks into the results: bit-identical
    // to a fully serial submission of the same batch.
    let (serial_session, serial_devices, serial_requests) = build(|b| b.serial());
    let serial = serial_session.submit_batch(&serial_requests).unwrap();
    assert_eq!(outcomes, serial);
    for (&d, &sd) in devices.iter().zip(&serial_devices) {
        assert_eq!(
            session.device_snapshot(d),
            serial_session.device_snapshot(sd)
        );
        assert_eq!(session.device_clock(d), serial_session.device_clock(sd));
    }
}

/// One request is one run, on warm lanes too: under open-loop arrivals and
/// deficit-round-robin (DRR) lanes of mixed weights, every warm outcome's
/// device delta accounts exactly one lane request, whose busy and queued
/// time are the outcome's own service and queueing time. Fresh runs have no
/// lane.
#[test]
fn every_warm_outcome_accounts_exactly_one_lane_request() {
    let mut session = pool_session(|b| b.workers(2));
    let writer = session.register(writer_program()).unwrap();
    let reader = session.register(reader_program()).unwrap();
    let a = session.create_device("tenant-a");
    let b = session.create_device("tenant-b");
    let at = |us: f64| SimTime::ZERO + Duration::from_us(us);
    let mut batch = Vec::new();
    for device in [a, b] {
        // Two flows of weights 1 and 3 arriving 5 µs apart, then a request
        // long after the lane drained; a fresh run after each lane.
        for i in 0..6 {
            let (program, flow, weight) = if i % 2 == 0 {
                (writer, 0, 1)
            } else {
                (reader, 1, 3)
            };
            batch.push(
                RunRequest::new(program, Policy::Conduit)
                    .on_device(device)
                    .arriving_at(at(5.0 * i as f64))
                    .weighted(flow, weight),
            );
        }
        batch.push(
            RunRequest::new(writer, Policy::PudSsd)
                .on_device(device)
                .arriving_at(at(50_000.0))
                .weighted(0, 1),
        );
        batch.push(RunRequest::new(reader, Policy::IspOnly).arriving_at(at(20.0)));
    }
    let outcomes = session.submit_batch(&batch).unwrap();

    for (i, (request, outcome)) in batch.iter().zip(&outcomes).enumerate() {
        let (summary, delta) = (&outcome.summary, &outcome.summary.device_delta);
        if request.requested_device().is_some() {
            assert_eq!(delta.lane_requests, 1, "request {i}");
            assert_eq!(summary.service_time, delta.lane_busy_time, "request {i}");
            assert_eq!(summary.queueing_time, delta.lane_queued_time, "request {i}");
        } else {
            assert_eq!(delta.lane_requests, 0, "request {i}");
        }
    }
    // The arrivals shaped both lanes: requests queued, and the late ones
    // found their lanes idle.
    for device in [a, b] {
        let snap = session.device_snapshot(device);
        assert_eq!(snap.lane_requests, 7);
        assert!(snap.lane_queued_time > Duration::ZERO);
        assert!(snap.lane_idle_time > Duration::ZERO);
    }
}

/// Same arrivals ⇒ bit-identical summaries, whatever the worker count: the
/// open-loop arrival offsets are part of the request, not of the schedule.
#[test]
fn arrival_times_are_deterministic_across_pool_sizes() {
    let run = |configure: fn(conduit::SessionBuilder) -> conduit::SessionBuilder| {
        let mut session = pool_session(configure);
        let writer = session.register(writer_program()).unwrap();
        let reader = session.register(reader_program()).unwrap();
        let a = session.create_device("tenant-a");
        let b = session.create_device("tenant-b");
        let at = |us: f64| SimTime::ZERO + Duration::from_us(us);
        let batch = vec![
            RunRequest::new(writer, Policy::Conduit).on_device(a),
            RunRequest::new(reader, Policy::IspOnly)
                .on_device(b)
                .arriving_at(at(40.0)),
            RunRequest::new(writer, Policy::PudSsd)
                .on_device(a)
                .arriving_at(at(25.0)),
            RunRequest::new(reader, Policy::Conduit), // fresh alongside
            RunRequest::new(writer, Policy::HostCpu)
                .on_device(b)
                .arriving_at(at(90.0)),
            RunRequest::new(reader, Policy::Conduit)
                .on_device(a)
                .arriving_at(at(4000.0)),
        ];
        let outcomes = session.submit_batch(&batch).unwrap();
        let snapshots: Vec<_> = [a, b]
            .into_iter()
            .map(|d| (session.device_snapshot(d), session.device_clock(d)))
            .collect();
        (outcomes, snapshots)
    };

    let serial = run(|b| b.serial());
    for workers in [2, 4, 8] {
        let parallel = match workers {
            2 => run(|b| b.workers(2)),
            4 => run(|b| b.workers(4)),
            8 => run(|b| b.workers(8)),
            _ => unreachable!(),
        };
        assert_eq!(
            parallel, serial,
            "arrival-driven schedule must not depend on {workers}-worker pools"
        );
    }

    // The arrivals did shape the stream: the late request (4 ms) found
    // tenant-a idle — zero queueing, an idle gap on the device — while the
    // mid-service arrival (25 µs) queued for less than the full first
    // service.
    let (outcomes, snapshots) = serial;
    assert_eq!(outcomes[5].summary.queueing_time, Duration::ZERO);
    assert!(snapshots[0].0.lane_idle_time > Duration::ZERO);
    assert!(snapshots[0].0.lane_occupancy() < 1.0);
    assert!(outcomes[2].summary.queueing_time > Duration::ZERO);
    assert!(outcomes[2].summary.queueing_time < outcomes[0].summary.service_time);
}

/// The canonical aged device pinned by the golden file: a fixed mix of
/// SSD-internal and host traffic on the small test configuration —
/// deterministic, so the exported bytes are reproducible everywhere.
fn canonical_checkpoint() -> Vec<u8> {
    let mut session = pool_session(|b| b);
    let writer = session.register(writer_program()).unwrap();
    let reader = session.register(reader_program()).unwrap();
    let device = session.create_device("golden");
    for &(program, policy) in &[
        (writer, Policy::PudSsd),
        (writer, Policy::HostCpu),
        (reader, Policy::Conduit),
        (writer, Policy::Conduit),
        (reader, Policy::IspOnly),
    ] {
        session
            .submit(&RunRequest::new(program, policy).on_device(device))
            .unwrap();
    }
    session.export_device(device).unwrap()
}

#[test]
fn golden_file_pins_the_checkpoint_format() {
    let bytes = canonical_checkpoint();
    let path = golden_path();
    if std::env::var_os("CONDUIT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent")).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with CONDUIT_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        committed, bytes,
        "serialized device-checkpoint bytes drifted from \
         tests/golden/device_checkpoint_v3.bin — if the format change is \
         intentional, bump DEVICE_STATE_FORMAT_VERSION (and/or \
         DEVICE_CHECKPOINT_FORMAT_VERSION) and regenerate with \
         CONDUIT_REGEN_GOLDEN=1"
    );
}

#[test]
fn golden_file_still_imports_and_serves_traffic() {
    let committed = std::fs::read(golden_path()).expect("golden file is committed");
    let mut session = pool_session(|b| b);
    let writer = session.register(writer_program()).unwrap();
    let device = session.import_device("golden", &committed).unwrap();
    let snap = session.device_snapshot(device);
    assert!(snap.device_ops > 0, "the golden device is aged: {snap:?}");
    assert!(snap.coherence_writes > 0);
    // The revived device keeps serving: its state is consistent enough for
    // further traffic, and re-exporting reproduces the bytes exactly.
    assert_eq!(session.export_device(device).unwrap(), committed);
    session
        .submit(&RunRequest::new(writer, Policy::Conduit).on_device(device))
        .unwrap();
    assert!(session.device_snapshot(device).device_ops > snap.device_ops);
}

/// Only the current checkpoint version imports. The committed golden
/// relabelled as any other version (the retired versions 1 and 2 among
/// them) is a typed error, and the failed import leaves the pool as it was.
#[test]
fn retired_checkpoint_versions_are_rejected() {
    let committed = std::fs::read(golden_path()).expect("golden file is committed");
    assert_eq!(
        u16::from_le_bytes([committed[4], committed[5]]),
        conduit::DEVICE_CHECKPOINT_FORMAT_VERSION
    );
    let mut session = pool_session(|b| b);
    let writer = session.register(writer_program()).unwrap();
    let tenant = session.create_device("tenant");
    session
        .submit(&RunRequest::new(writer, Policy::Conduit).on_device(tenant))
        .unwrap();
    let before = session.device_snapshot(tenant);
    let devices = session.devices().count();
    for version in [0u16, 1, 2, 4, u16::MAX] {
        let mut relabelled = committed.clone();
        relabelled[4..6].copy_from_slice(&version.to_le_bytes());
        for name in ["golden", "tenant"] {
            let err = session.import_device(name, &relabelled).unwrap_err();
            assert!(
                matches!(err, conduit_types::ConduitError::CorruptCheckpoint { .. }),
                "version {version} into {name}: {err:?}"
            );
        }
        assert!(session.find_device("golden").is_none());
        assert_eq!(session.devices().count(), devices);
        assert_eq!(session.device_snapshot(tenant), before);
    }
}

/// The delta-against-pristine encoding: a cold (never-used) device's
/// checkpoint must not embed the full per-block flash image.
#[test]
fn cold_device_checkpoints_are_small() {
    let mut session = pool_session(|b| b);
    let writer = session.register(writer_program()).unwrap();
    let cold = session.create_device("cold");
    let warm = session.create_device("warm");
    for policy in [Policy::PudSsd, Policy::HostCpu, Policy::Conduit] {
        session
            .submit(&RunRequest::new(writer, policy).on_device(warm))
            .unwrap();
    }
    let cold_bytes = session.export_device(cold).unwrap();
    let warm_bytes = session.export_device(warm).unwrap();
    // The small test geometry alone has hundreds of blocks; an image of
    // every one of them would take ~20 KB at this scale (megabytes at paper
    // scale). The sparse encoding stores none of them for a cold device —
    // what remains is the fixed-size timeline/energy bookkeeping, which
    // does not grow with the flash array.
    assert!(
        cold_bytes.len() < 4096,
        "cold checkpoint should be dominated by fixed bookkeeping, got {} bytes",
        cold_bytes.len()
    );
    assert!(
        cold_bytes.len() < warm_bytes.len(),
        "an aged device's checkpoint carries its touched blocks"
    );
    // Both still round-trip exactly.
    let mut other = pool_session(|b| b);
    let revived = other.import_device("warm", &warm_bytes).unwrap();
    assert_eq!(
        other.device_snapshot(revived),
        session.device_snapshot(warm)
    );
}
