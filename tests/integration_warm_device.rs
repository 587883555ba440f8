//! Warm-device mode: one persistent `DeviceState` threaded through a
//! request stream (a single named device from the session's pool).
//!
//! These tests pin down the three properties the warm refactor promises:
//!
//! 1. **State carries over**: the second request of a warm stream observes
//!    (and pays for) the FTL/coherence state the first request left behind,
//!    visible in its `RunSummary::device_delta`.
//! 2. **Determinism**: replaying the same warm request stream is
//!    bit-identical, including through `submit_batch` with fresh requests
//!    mixed in (parallel and serial paths agree).
//! 3. **Aging is modelled**: sustained write traffic on a small device
//!    eventually triggers garbage collection, and the wear spread stays
//!    bounded while every page remains translatable.
//!
//! Multi-device pool behaviour (named devices, lanes, scheduling,
//! arrivals, checkpoints) is covered by `tests/integration_device_pool.rs`.

use conduit::{Policy, RunOutcome, RunRequest, Session};
use conduit_types::{
    Duration, LogicalPageId, OpType, Operand, SsdConfig, VectorInst, VectorProgram,
};

/// A program that reads pages 0/4/8 and stores its result to page 12 —
/// every run dirties the destination pages at the executing resource.
fn writer_program() -> VectorProgram {
    let mut prog = VectorProgram::new("writer");
    let x = prog.push_binary(OpType::Xor, Operand::page(0), Operand::page(4));
    prog.push(
        VectorInst::binary(1, OpType::Add, Operand::result(x), Operand::page(8))
            .store_to(LogicalPageId::new(12)),
    );
    prog
}

/// A deliberately tiny flash array (64 physical pages) so sustained write
/// traffic exhausts the free pool quickly enough for GC to fire in a test.
fn tiny_cfg() -> SsdConfig {
    let mut cfg = SsdConfig::small_for_tests();
    cfg.flash.channels = 1;
    cfg.flash.dies_per_channel = 1;
    cfg.flash.planes_per_die = 1;
    cfg.flash.blocks_per_plane = 8;
    cfg.flash.pages_per_block = 8;
    cfg
}

#[test]
fn second_warm_request_observes_the_firsts_writes() {
    // Request 1 executes in SSD DRAM (PuD) and leaves its result pages
    // dirty there; request 2 is a host-side tenant, so the lazy coherence
    // protocol must flush request 1's dirty copies to flash before the
    // host's version of the pages can be recorded. On a fresh device the
    // same second request sees nothing to flush.
    let mut warm = Session::builder(SsdConfig::small_for_tests()).build();
    let id = warm.register(writer_program()).unwrap();
    let dev = warm.create_device("tenant");

    let first = warm
        .submit(&RunRequest::new(id, Policy::PudSsd).on_device(dev))
        .unwrap();
    assert!(
        first.summary.device_delta.coherence_writes > 0,
        "the store must be recorded in the coherence directory"
    );
    assert!(
        first.summary.device_delta.dirty_pages > 0,
        "request 1 must leave dirty pages behind"
    );
    assert_eq!(
        first.summary.device_delta.coherence_syncs, 0,
        "nothing to synchronize on a pristine device"
    );

    let second = warm
        .submit(&RunRequest::new(id, Policy::HostCpu).on_device(dev))
        .unwrap();
    assert!(
        second.summary.device_delta.coherence_syncs > 0,
        "request 2 must flush the dirty state request 1 left behind"
    );
    assert!(
        second.summary.device_delta.rewrites > 0,
        "each flush is an out-of-place flash rewrite"
    );

    // Control: the identical second request on a *fresh* device has no
    // earlier tenant to synchronize with.
    let mut fresh = Session::builder(SsdConfig::small_for_tests()).build();
    let fresh_id = fresh.register(writer_program()).unwrap();
    let control = fresh
        .submit(&RunRequest::new(fresh_id, Policy::HostCpu))
        .unwrap();
    assert_eq!(control.summary.device_delta.coherence_syncs, 0);

    // The cumulative snapshot agrees with the sum of the per-request
    // deltas, and the stream clock with the sum of the service times.
    let snap = warm.device_snapshot(dev);
    assert_eq!(
        snap.coherence_syncs,
        first.summary.device_delta.coherence_syncs + second.summary.device_delta.coherence_syncs
    );
    assert_eq!(
        snap.device_ops,
        first.summary.device_delta.device_ops + second.summary.device_delta.device_ops
    );
    assert_eq!(
        warm.device_clock(dev).as_ps(),
        first.summary.service_time.as_ps() + second.summary.service_time.as_ps()
    );
    // Closed-loop lane accounting: two requests, all busy, no idle gaps.
    assert_eq!(snap.lane_requests, 2);
    assert_eq!(
        snap.lane_busy_time,
        first.summary.service_time + second.summary.service_time
    );
    assert_eq!(snap.lane_idle_time, Duration::ZERO);
    assert_eq!(snap.lane_occupancy(), 1.0);
}

#[test]
fn warm_replay_of_the_same_stream_is_bit_identical() {
    let stream = |session: &mut Session| -> Vec<RunOutcome> {
        let id = session.register(writer_program()).unwrap();
        let dev = session.create_device("replay");
        [
            Policy::PudSsd,
            Policy::IspOnly,
            Policy::Conduit,
            Policy::HostCpu,
            Policy::PudSsd,
            Policy::Conduit,
        ]
        .into_iter()
        .map(|p| {
            session
                .submit(&RunRequest::new(id, p).on_device(dev))
                .unwrap()
        })
        .collect()
    };
    let mut a = Session::builder(SsdConfig::small_for_tests()).build();
    let mut b = Session::builder(SsdConfig::small_for_tests()).build();
    let run_a = stream(&mut a);
    let run_b = stream(&mut b);
    assert_eq!(run_a, run_b, "warm replay must be bit-identical");
    assert_eq!(
        a.device_snapshot(a.find_device("replay").unwrap()),
        b.device_snapshot(b.find_device("replay").unwrap())
    );
}

#[test]
fn alternating_tenants_do_not_grow_the_device_checkpoint() {
    // Each PuD-SSD run leaves page 12 dirty in SSD DRAM, and the host run
    // after it commits that page to flash, evicting its DRAM copy. The
    // residency set stays far below capacity, so nothing else ever drains
    // its eviction queue: a page that leaves the set must leave the queue
    // too, or every round pair adds entries and the checkpoint grows
    // without bound. The tiny flash array makes garbage collection recycle
    // the same few blocks, so the flash image settles as well.
    let mut session = Session::builder(tiny_cfg()).build();
    let id = session.register(writer_program()).unwrap();
    let dev = session.create_device("alternating");
    let round_pairs = |n: usize| {
        for _ in 0..n {
            for policy in [Policy::PudSsd, Policy::HostCpu] {
                session
                    .submit(&RunRequest::new(id, policy).on_device(dev))
                    .unwrap();
            }
        }
        session.export_device(dev).unwrap().len()
    };
    let settled = round_pairs(8);
    let later = round_pairs(32);
    assert_eq!(later, settled, "checkpoint grew over 32 more round pairs");
}

#[test]
fn mixed_batch_matches_serial_submission_in_request_order() {
    let requests = |id, dev| {
        vec![
            RunRequest::new(id, Policy::Conduit),
            RunRequest::new(id, Policy::PudSsd).on_device(dev),
            RunRequest::new(id, Policy::HostCpu),
            RunRequest::new(id, Policy::HostCpu).on_device(dev),
            RunRequest::new(id, Policy::Ideal),
            RunRequest::new(id, Policy::PudSsd).on_device(dev),
        ]
    };
    // Batched session: fresh requests fan out across 4 workers while the
    // warm ones run as one FIFO lane on the tenant device.
    let mut batched = Session::builder(SsdConfig::small_for_tests())
        .workers(4)
        .build();
    let id = batched.register(writer_program()).unwrap();
    let dev = batched.create_device("tenant");
    let batch = batched.submit_batch(&requests(id, dev)).unwrap();

    // Serial session: the same batch, executed one plan at a time on the
    // calling thread.
    let mut serial = Session::builder(SsdConfig::small_for_tests())
        .serial()
        .build();
    let serial_id = serial.register(writer_program()).unwrap();
    let serial_dev = serial.create_device("tenant");
    let one_by_one = serial
        .submit_batch(&requests(serial_id, serial_dev))
        .unwrap();

    assert_eq!(batch, one_by_one);
    assert_eq!(
        batched.device_snapshot(dev),
        serial.device_snapshot(serial_dev)
    );
    // The warm device really was shared: the host-side warm request had to
    // flush the dirty pages the PuD warm request before it left behind.
    assert!(batch[3].summary.device_delta.coherence_syncs > 0);
    // The lane's stream clock separates queueing from service: the first
    // warm request found the lane idle, the later ones queued behind it.
    assert_eq!(batch[1].summary.queueing_time, Duration::ZERO);
    assert_eq!(
        batch[3].summary.queueing_time,
        batch[1].summary.service_time
    );
    assert_eq!(
        batch[5].summary.queueing_time,
        batch[1].summary.service_time + batch[3].summary.service_time
    );

    // Submitting the same stream one request at a time produces the same
    // aging and service times; only the lane queueing differs (a lone
    // submit never waits).
    let mut lone = Session::builder(SsdConfig::small_for_tests()).build();
    let lone_id = lone.register(writer_program()).unwrap();
    let lone_dev = lone.create_device("tenant");
    for (request, from_batch) in requests(lone_id, lone_dev).iter().zip(&batch) {
        let outcome = lone.submit(request).unwrap();
        assert_eq!(
            outcome.summary.service_time,
            from_batch.summary.service_time
        );
        assert_eq!(outcome.summary.queueing_time, Duration::ZERO);
    }
    // Apart from the lane queueing accounting — and the lane window, which
    // is batch-scoped (a lone submit is a batch of one, so it covers only
    // the final request) — the devices aged identically.
    let batched_snap = batched.device_snapshot(dev);
    let mut lone_snap = lone.device_snapshot(lone_dev);
    assert!(lone_snap.lane_queued_time < batched_snap.lane_queued_time);
    lone_snap.lane_queued_time = batched_snap.lane_queued_time;
    assert_eq!(lone_snap.window_requests, 1);
    assert_eq!(lone_snap.window_queued_time, Duration::ZERO);
    lone_snap.window_requests = batched_snap.window_requests;
    lone_snap.window_busy_time = batched_snap.window_busy_time;
    lone_snap.window_idle_time = batched_snap.window_idle_time;
    lone_snap.window_queued_time = batched_snap.window_queued_time;
    assert_eq!(lone_snap, batched_snap);
}

#[test]
fn sustained_warm_writes_trigger_gc_and_keep_wear_bounded() {
    let mut session = Session::builder(tiny_cfg()).build();
    let dev = session.create_device("soak");
    let request_pud = RunRequest::inline(writer_program(), Policy::PudSsd).on_device(dev);
    let request_host = RunRequest::inline(writer_program(), Policy::HostCpu).on_device(dev);

    let mut gc_free_requests = 0u64;
    let mut first_gc_at = None;
    for round in 0..40 {
        // Alternating SSD-internal and host tenants makes every round flush
        // the previous round's dirty result pages: sustained out-of-place
        // write traffic.
        let a = session.submit(&request_pud).unwrap();
        let b = session.submit(&request_host).unwrap();
        let fired = a.summary.device_delta.gc_invocations + b.summary.device_delta.gc_invocations;
        if fired > 0 && first_gc_at.is_none() {
            first_gc_at = Some(round);
        }
        if fired == 0 {
            gc_free_requests += 2;
        }
    }

    let snap = session.device_snapshot(dev);
    assert!(
        snap.gc_invocations > 0 && snap.gc_blocks_erased > 0,
        "sustained write traffic must eventually wake the garbage collector: {snap:?}"
    );
    assert!(
        first_gc_at.expect("GC fired") > 0,
        "a warm device must absorb some traffic before GC is needed"
    );
    assert!(
        gc_free_requests > 0,
        "GC must not run on every request — only under free-pool pressure"
    );
    // Wear stays bounded: the spread between the most- and least-erased
    // block must not exceed the erases GC actually performed, and must stay
    // within the wear-leveling budget (the leveler tolerates a spread of 64
    // before migrating a cold block).
    assert!(snap.wear_spread <= snap.gc_blocks_erased);
    assert!(
        snap.wear_spread <= 64,
        "wear spread {} exceeded the leveling budget",
        snap.wear_spread
    );
    // The device is aged but healthy: every mapped page still translates,
    // so another request runs fine.
    assert!(session.submit(&request_pud).is_ok());
}

#[test]
fn fresh_mode_results_match_a_dedicated_session() {
    // A session that interleaves warm traffic must produce the exact same
    // fresh-mode outcomes as a session that never ran warm at all.
    let mut mixed = Session::builder(SsdConfig::small_for_tests()).build();
    let id = mixed.register(writer_program()).unwrap();
    let dev = mixed.create_device("noise");
    let fresh_request = RunRequest::new(id, Policy::Conduit);
    for _ in 0..4 {
        mixed.submit(&fresh_request.clone().on_device(dev)).unwrap();
    }
    let from_mixed = mixed.submit(&fresh_request).unwrap();

    let mut pristine = Session::builder(SsdConfig::small_for_tests()).build();
    let pid = pristine.register(writer_program()).unwrap();
    let from_pristine = pristine
        .submit(&RunRequest::new(pid, Policy::Conduit))
        .unwrap();

    assert_eq!(from_mixed, from_pristine);
}
