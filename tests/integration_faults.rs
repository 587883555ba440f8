//! Deterministic fault injection end to end: seeded fault plans are
//! bit-identical across worker counts, degraded devices reject writes with
//! a typed error instead of panicking (in a batch too, on every worker
//! count), degraded state survives an export/import/replay cycle exactly,
//! an imported device keeps its own fault plan across a reset, a
//! zero-fault plan cannot perturb a fault-free session, and corrupted
//! fault-state checkpoint bytes are rejected cleanly.

use conduit::{DeviceHandle, Policy, ProgramId, RunOutcome, RunRequest, Session, SessionBuilder};
use conduit_types::{
    ConduitError, FaultConfig, LogicalPageId, OpType, Operand, SimTime, SsdConfig, VectorInst,
    VectorProgram,
};

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

/// A read-only program: no stores, so it keeps working on a degraded
/// (read-only) device once its operand pages are mapped.
fn reader_program() -> VectorProgram {
    let mut prog = VectorProgram::new("reader");
    let a = prog.push_binary(OpType::And, Operand::page(16), Operand::page(20));
    prog.push_binary(OpType::Mul, Operand::result(a), Operand::page(24));
    prog
}

fn pool_session(configure: impl FnOnce(SessionBuilder) -> SessionBuilder) -> Session {
    configure(Session::builder(SsdConfig::small_for_tests())).build()
}

/// A fault mix aggressive enough to fire within a short batch but gentle
/// enough (default 8-block spare budget) not to degrade the device.
fn lively_faults(seed: u64) -> FaultConfig {
    FaultConfig {
        read_transient_rate: 0.5,
        program_fail_rate: 0.2,
        erase_fail_rate: 0.3,
        wear_sensitivity: 0.05,
        ..FaultConfig::with_seed(seed)
    }
}

/// The canonical faulty workload: three seeded devices served a mixed
/// batch (plus fresh requests) three times over.
fn faulty_batch(
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
        RunRequest::new(writer, Policy::Conduit).on_device(b),
        RunRequest::new(reader, Policy::Conduit).on_device(a),
        RunRequest::new(writer, Policy::Conduit).on_device(c),
    ]
}

#[test]
fn seeded_faults_are_bit_identical_across_pool_sizes() {
    let run = |mut session: Session| {
        let writer = session.register(writer_program()).unwrap();
        let reader = session.register(reader_program()).unwrap();
        let a = session.create_device_with_faults("tenant-a", lively_faults(11));
        let b = session.create_device_with_faults("tenant-b", lively_faults(22));
        let c = session.create_device_with_faults("tenant-c", lively_faults(33));
        let mut outcomes: Vec<RunOutcome> = Vec::new();
        for _ in 0..3 {
            outcomes.extend(
                session
                    .submit_batch(&faulty_batch(writer, reader, a, b, c))
                    .unwrap(),
            );
        }
        let snapshots: Vec<_> = [a, b, c]
            .into_iter()
            .map(|d| (session.device_snapshot(d), session.device_clock(d)))
            .collect();
        let exports: Vec<_> = [a, b, c]
            .into_iter()
            .map(|d| session.export_device(d).unwrap())
            .collect();
        (outcomes, snapshots, exports)
    };

    let serial = run(pool_session(|b| b.serial()));

    // The plans actually fired: this is a fault-exercising workload, not a
    // vacuous all-quiet pass.
    let activity: u64 = serial
        .1
        .iter()
        .map(|(s, _)| s.read_retries + s.program_failures + s.erase_failures)
        .sum();
    assert!(activity > 0, "the fault mix never fired: {:?}", serial.1);

    for workers in [2, 4, 8] {
        let parallel = match workers {
            2 => run(pool_session(|b| b.workers(2))),
            4 => run(pool_session(|b| b.workers(4))),
            8 => run(pool_session(|b| b.workers(8))),
            _ => unreachable!(),
        };
        assert_eq!(
            parallel, serial,
            "seeded fault injection must not depend on {workers}-worker pools"
        );
    }
}

/// Drives a device past its spare-block budget and returns the session
/// (built by `configure`), the degraded device, and the registered program
/// ids.
fn degraded_session(
    configure: impl FnOnce(SessionBuilder) -> SessionBuilder,
) -> (Session, DeviceHandle, ProgramId, ProgramId) {
    let mut session = pool_session(configure);
    let writer = session.register(writer_program()).unwrap();
    let reader = session.register(reader_program()).unwrap();
    let device = session.create_device_with_faults(
        "wearout",
        FaultConfig {
            program_fail_rate: 0.8,
            spare_blocks: 1,
            ..FaultConfig::with_seed(7)
        },
    );
    // Map the reader's operand pages while the device still accepts writes,
    // so post-degradation reads exercise the read-only path.
    session
        .submit(&RunRequest::new(reader, Policy::Conduit).on_device(device))
        .unwrap();
    // Alternating the policy forces the dirty store out of the DRAM
    // coherence buffer and through the FTL's flash program path on every
    // other run — that's where program faults fire.
    for i in 0..64 {
        let policy = if i % 2 == 0 {
            Policy::Conduit
        } else {
            Policy::HostCpu
        };
        match session.submit(&RunRequest::new(writer, policy).on_device(device)) {
            Ok(_) => {}
            Err(err) => {
                assert!(
                    matches!(err, ConduitError::DeviceDegraded { .. }),
                    "expected DeviceDegraded, got {err}"
                );
                assert!(session.device_snapshot(device).health.is_degraded());
                return (session, device, writer, reader);
            }
        }
    }
    panic!("an 80% program-failure rate never exhausted a 1-block spare budget");
}

#[test]
fn degraded_device_rejects_writes_and_keeps_serving_reads() {
    let (session, device, writer, reader) = degraded_session(|b| b.serial());
    let snap = session.device_snapshot(device);
    assert!(
        snap.retired_blocks > 1,
        "degradation means the 1-block spare budget was exceeded: {snap:?}"
    );
    assert!(snap.program_failures > 0);

    // Writes stay rejected — same typed error, no panic, every time.
    for _ in 0..3 {
        let err = session
            .submit(&RunRequest::new(writer, Policy::Conduit).on_device(device))
            .unwrap_err();
        assert!(matches!(err, ConduitError::DeviceDegraded { .. }));
    }

    // Reads of already-mapped data still flow.
    let outcome = session
        .submit(&RunRequest::new(reader, Policy::Conduit).on_device(device))
        .unwrap();
    assert_eq!(outcome.summary.instructions, 2);
}

#[test]
fn degraded_device_checkpoint_round_trips_and_replays_identically() {
    let (session, device, writer, reader) = degraded_session(|b| b.serial());
    let bytes = session.export_device(device).unwrap();

    let mut revived_session = pool_session(|b| b.serial());
    let revived_writer = revived_session.register(writer_program()).unwrap();
    let revived_reader = revived_session.register(reader_program()).unwrap();
    let revived = revived_session.import_device("wearout", &bytes).unwrap();

    assert_eq!(
        revived_session.device_snapshot(revived),
        session.device_snapshot(device)
    );
    assert_eq!(
        revived_session.device_clock(revived),
        session.device_clock(device)
    );
    assert!(revived_session
        .device_snapshot(revived)
        .health
        .is_degraded());
    assert_eq!(
        revived_session.export_device(revived).unwrap(),
        bytes,
        "import → export is byte-stable for a degraded device"
    );

    // Replaying the same requests produces identical results on both
    // sides: rejected writes and served reads alike. (A rejected write
    // still consumes simulated device time — its operand loads run before
    // the store is turned away — so it is replayed on both sessions.)
    let err = revived_session
        .submit(&RunRequest::new(revived_writer, Policy::Conduit).on_device(revived))
        .unwrap_err();
    assert!(matches!(err, ConduitError::DeviceDegraded { .. }));
    let err = session
        .submit(&RunRequest::new(writer, Policy::Conduit).on_device(device))
        .unwrap_err();
    assert!(matches!(err, ConduitError::DeviceDegraded { .. }));
    let original_read = session
        .submit(&RunRequest::new(reader, Policy::Conduit).on_device(device))
        .unwrap();
    let revived_read = revived_session
        .submit(&RunRequest::new(revived_reader, Policy::Conduit).on_device(revived))
        .unwrap();
    assert_eq!(revived_read, original_read);
    assert_eq!(
        revived_session.export_device(revived).unwrap(),
        session.export_device(device).unwrap()
    );
}

/// A batch in which one lane's device is degraded, next to healthy lanes
/// and fresh requests: every task still runs, and the batch fails the same
/// way and leaves every device in the same state on 1, 2 and 4 workers.
#[test]
fn a_degraded_lane_fails_its_batch_alike_on_every_worker_count() {
    let run = |workers: usize| {
        let (mut session, worn, writer, reader) = degraded_session(|b| b.workers(workers));
        let healthy = session.create_device_with_faults("tenant-a", lively_faults(11));
        let quiet = session.create_device("tenant-b");
        let worn_before = session.device_snapshot(worn);
        let requests = [
            RunRequest::new(writer, Policy::Conduit).on_device(healthy),
            RunRequest::new(reader, Policy::Conduit),
            RunRequest::new(writer, Policy::Conduit).on_device(worn),
            RunRequest::new(writer, Policy::PudSsd).on_device(quiet),
            RunRequest::new(reader, Policy::Conduit).on_device(worn),
            RunRequest::new(writer, Policy::HostCpu),
            RunRequest::new(writer, Policy::HostCpu).on_device(healthy),
        ];
        let err = session.submit_batch(&requests).unwrap_err();
        let devices =
            [worn, healthy, quiet].map(|d| (session.device_snapshot(d), session.device_clock(d)));
        // Every lane served all of its requests, the worn device's read
        // after its rejected write included.
        let served = devices.map(|(snapshot, _)| snapshot.lane_requests);
        assert_eq!(
            served,
            [worn_before.lane_requests + 2, 2, 1],
            "{workers} workers"
        );
        assert!(devices.iter().all(|&(_, clock)| clock > SimTime::ZERO));
        (err, devices)
    };
    let one = run(1);
    assert!(
        matches!(one.0, ConduitError::DeviceDegraded { .. }),
        "got {}",
        one.0
    );
    for workers in [2, 4] {
        assert_eq!(run(workers), one, "{workers} workers");
    }
}

/// An imported device keeps the fault plan its checkpoint carries: once
/// both sides reset their device, the importer rebuilds it with that plan,
/// not with the importing session's inert default.
#[test]
fn an_imported_device_keeps_its_fault_plan_across_a_reset() {
    let run = |session: &Session, writer: ProgramId, device: DeviceHandle, policy: Policy| {
        session
            .submit(&RunRequest::new(writer, policy).on_device(device))
            .unwrap()
    };
    let mut exporter = pool_session(|b| b.serial());
    let writer = exporter.register(writer_program()).unwrap();
    let device = exporter.create_device_with_faults("tenant", lively_faults(7));
    for _ in 0..3 {
        run(&exporter, writer, device, Policy::Conduit);
    }
    let bytes = exporter.export_device(device).unwrap();

    let mut importer = Session::new(SsdConfig::small_for_tests());
    let imported_writer = importer.register(writer_program()).unwrap();
    let imported = importer.import_device("tenant", &bytes).unwrap();
    assert_eq!(
        run(&importer, imported_writer, imported, Policy::Conduit),
        run(&exporter, writer, device, Policy::Conduit),
        "the run right after the import continues the stream"
    );

    exporter.reset_device(device);
    importer.reset_device(imported);
    let mut exported_runs = Vec::new();
    let mut imported_runs = Vec::new();
    for i in 0..5 {
        let policy = if i % 2 == 0 {
            Policy::Conduit
        } else {
            Policy::HostCpu
        };
        exported_runs.push(run(&exporter, writer, device, policy));
        imported_runs.push(run(&importer, imported_writer, imported, policy));
    }
    let snapshot = exporter.device_snapshot(device);
    assert!(
        snapshot.read_retries > 0 && snapshot.retired_blocks > 0,
        "the plan fired after the reset: {snapshot:?}"
    );
    assert_eq!(importer.device_snapshot(imported), snapshot);
    assert_eq!(imported_runs, exported_runs);
}

#[test]
fn zero_fault_plan_is_bit_identical_to_a_fault_free_session() {
    let run = |mut session: Session| {
        let writer = session.register(writer_program()).unwrap();
        let reader = session.register(reader_program()).unwrap();
        let warm = session.create_device("steady");
        let requests = vec![
            RunRequest::new(writer, Policy::Conduit).on_device(warm),
            RunRequest::new(reader, Policy::Conduit),
            RunRequest::new(writer, Policy::PudSsd).on_device(warm),
            RunRequest::new(reader, Policy::IspOnly).on_device(warm),
        ];
        let outcomes = session.submit_batch(&requests).unwrap();
        (
            outcomes,
            session.device_snapshot(warm),
            session.device_clock(warm),
        )
    };

    // An inert plan never draws, so even a non-zero seed cannot perturb the
    // stream: results match a session that never heard of fault injection.
    let plain = run(pool_session(|b| b));
    let seeded = run(pool_session(|b| {
        b.faults(FaultConfig::with_seed(0xDEAD_BEEF))
    }));
    assert_eq!(seeded, plain);
}

#[test]
fn corrupted_fault_state_checkpoints_are_rejected_not_panicked() {
    let mut session = pool_session(|b| b.serial());
    let writer = session.register(writer_program()).unwrap();
    let device = session.create_device_with_faults("fuzzed", lively_faults(99));
    // Alternating policies flushes the dirty store to flash (program-fault
    // territory) and re-reads evicted pages from the array (retry
    // territory), so the exported checkpoint carries a live fault plan.
    for policy in [
        Policy::Conduit,
        Policy::HostCpu,
        Policy::Conduit,
        Policy::HostCpu,
    ] {
        session
            .submit(&RunRequest::new(writer, policy).on_device(device))
            .unwrap();
    }
    let bytes = session.export_device(device).unwrap();
    let snap = session.device_snapshot(device);
    assert!(
        snap.read_retries + snap.program_failures > 0,
        "the fuzz target should carry live fault state: {snap:?}"
    );

    // Flip one 8-byte word at a time across the whole checkpoint — headers,
    // flash delta, fault tail, everything. Every mutation must come back as
    // a clean `Result`; the overwhelming majority as a rejection.
    let mut rejected = 0usize;
    let mut trials = 0usize;
    for offset in (0..bytes.len()).step_by(8) {
        let mut corrupt = bytes.clone();
        for b in corrupt[offset..bytes.len().min(offset + 8)].iter_mut() {
            *b ^= 0xA5;
        }
        let mut probe = pool_session(|b| b.serial());
        trials += 1;
        if probe.import_device("fuzzed", &corrupt).is_err() {
            rejected += 1;
        }
    }
    assert!(
        rejected * 2 > trials,
        "only {rejected}/{trials} corrupted checkpoints were rejected"
    );

    // Truncation anywhere inside the fault tail (the last stretch of the
    // FTL block) is likewise a clean rejection.
    for cut in 1..=8 {
        let truncated = &bytes[..bytes.len() - cut * 7];
        let mut probe = pool_session(|b| b.serial());
        assert!(probe.import_device("fuzzed", truncated).is_err());
    }

    // The pristine bytes still import, so the fuzz loop really was
    // exercising the validation paths rather than a broken baseline.
    let mut probe = pool_session(|b| b.serial());
    let ok = probe.import_device("fuzzed", &bytes).unwrap();
    assert_eq!(probe.device_snapshot(ok), snap);
}
