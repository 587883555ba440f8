//! Integration tests of the traffic subsystem: CTR1 trace stability,
//! corruption rejection, and replay determinism across worker counts.
//!
//! The committed golden file (`tests/golden/trace_v2.bin`) pins the CTR1
//! wire format at [`conduit_repro::traffic::TRACE_VERSION`]. If an
//! intentional format change breaks `golden_trace_pins_the_wire_format`,
//! bump `TRACE_VERSION`, rename the golden file after it and regenerate:
//!
//! ```text
//! CONDUIT_REGEN_GOLDEN=1 cargo test --test integration_traffic
//! ```

use conduit_repro::core::{Policy, RunOutcome, Session};
use conduit_repro::traffic::{ArrivalSpec, TenantSpec, Trace, TrafficMix};
use conduit_repro::types::{Duration, SsdConfig};
use conduit_repro::workloads::{Scale, Workload};

/// The canonical mix frozen into the golden trace: one deterministic
/// victim, one Poisson tenant and one bursty antagonist, two of them
/// sharing a device. Do not change this mix without bumping the golden
/// file's name and `TRACE_VERSION` — it exists to keep the wire format
/// honest, not to be convenient.
fn golden_mix() -> TrafficMix {
    TrafficMix::new(Scale::test())
        .tenant(TenantSpec::new(
            "victim",
            "shared",
            Workload::Jacobi1d,
            Policy::Conduit,
            ArrivalSpec::Deterministic {
                interarrival: Duration::from_us(5.0),
                phase: Duration::from_us(1.0),
            },
        ))
        .tenant(TenantSpec::new(
            "background",
            "other",
            Workload::XorFilter,
            Policy::DmOffloading,
            ArrivalSpec::Poisson {
                mean_interarrival: Duration::from_us(7.0),
                seed: 0x90_1d_e4,
            },
        ))
        .tenant(TenantSpec::new(
            "antagonist",
            "shared",
            Workload::LlmTraining,
            Policy::HostCpu,
            ArrivalSpec::MarkovOnOff {
                burst_interarrival: Duration::from_us(2.0),
                mean_on: Duration::from_us(12.0),
                mean_off: Duration::from_us(12.0),
                seed: 0xB0_05_7E,
            },
        ))
}

fn golden_trace() -> Trace {
    golden_mix()
        .generate(Duration::from_us(60.0))
        .expect("the golden mix is valid")
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace_v2.bin")
}

/// Replays a trace on a session with the given worker count and returns the
/// outcomes.
fn replay(trace: &Trace, workers: Option<usize>) -> Vec<RunOutcome> {
    let mut builder = Session::builder(SsdConfig::small_for_tests());
    builder = match workers {
        None => builder.serial(),
        Some(w) => builder.workers(w),
    };
    let mut session = builder.build();
    let run = trace.instantiate(&mut session).expect("trace instantiates");
    session
        .submit_batch(&run.requests)
        .expect("replay succeeds")
}

#[test]
fn golden_trace_pins_the_wire_format() {
    let bytes = golden_trace().to_bytes();
    let path = golden_path();
    if std::env::var_os("CONDUIT_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent")).unwrap();
        std::fs::write(&path, &bytes).unwrap();
    }
    let committed = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with CONDUIT_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        bytes, committed,
        "CTR1 bytes drifted from tests/golden/trace_v2.bin — if the format \
         change is intentional, bump TRACE_VERSION and regenerate with \
         CONDUIT_REGEN_GOLDEN=1"
    );
}

#[test]
fn golden_trace_still_decodes_and_reencodes() {
    let committed = std::fs::read(golden_path()).expect("golden file is committed");
    let decoded = Trace::from_bytes(&committed).expect("golden trace decodes");
    assert_eq!(decoded, golden_trace());
    assert_eq!(
        decoded.to_bytes(),
        committed,
        "decode → re-encode must be byte-identical"
    );
}

#[test]
fn every_single_word_corruption_is_rejected() {
    // Flip each 64-bit word of the golden file (and the trailing partial
    // word) one at a time: the trailing checksum covers the whole body, so
    // every corruption must deterministically fail to decode — never panic,
    // never silently yield a different trace.
    let committed = std::fs::read(golden_path()).expect("golden file is committed");
    assert!(Trace::from_bytes(&committed).is_ok());
    for word in 0..committed.len().div_ceil(8) {
        let mut corrupt = committed.clone();
        let start = word * 8;
        let end = (start + 8).min(corrupt.len());
        for b in &mut corrupt[start..end] {
            *b ^= 0xA5;
        }
        assert!(
            Trace::from_bytes(&corrupt).is_err(),
            "corrupting word {word} (bytes {start}..{end}) must be rejected"
        );
    }
}

#[test]
fn truncated_golden_trace_is_rejected_at_every_length() {
    let committed = std::fs::read(golden_path()).expect("golden file is committed");
    for len in 0..committed.len() {
        assert!(
            Trace::from_bytes(&committed[..len]).is_err(),
            "truncation to {len} bytes must be rejected"
        );
    }
}

#[test]
fn export_reimport_replays_byte_identically() {
    // Serialize, reload, and replay both traces on fresh sessions: the
    // outcome stream must match bit for bit (summaries carry latencies,
    // energy, placements and device deltas — PartialEq covers them all).
    let trace = golden_trace();
    let reloaded = Trace::from_bytes(&trace.to_bytes()).expect("roundtrip decodes");
    assert_eq!(trace, reloaded);
    let original = replay(&trace, None);
    let replayed = replay(&reloaded, None);
    assert_eq!(original.len(), replayed.len());
    for (a, b) in original.iter().zip(&replayed) {
        assert_eq!(a.summary, b.summary, "replay must be bit-identical");
    }
}

#[test]
fn trace_replay_is_identical_across_pool_sizes() {
    // The same trace replayed serially and on 2/4/8-worker pools must
    // produce identical outcome streams: lanes are deterministic FIFO state
    // machines regardless of how the scheduler interleaves them on real
    // CPU cores.
    let trace = golden_trace();
    let serial = replay(&trace, None);
    for workers in [2, 4, 8] {
        let pooled = replay(&trace, Some(workers));
        assert_eq!(serial.len(), pooled.len());
        for (i, (a, b)) in serial.iter().zip(&pooled).enumerate() {
            assert_eq!(
                a.summary, b.summary,
                "request {i} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn generation_draw_counts_are_replayable() {
    // Counted-draw invariant at the mix level: generating the same mix
    // twice consumes identical randomness and yields identical traces, and
    // per-tenant record counts are stable.
    let a = golden_trace();
    let b = golden_trace();
    assert_eq!(a, b);
    for tenant in 0..3u16 {
        assert_eq!(a.tenant_records(tenant), b.tenant_records(tenant));
        assert!(
            a.tenant_records(tenant) > 0,
            "tenant {tenant} must contribute records to the golden trace"
        );
    }
}
