//! The golden outcome oracle shared by the integration suites.
//!
//! A test renders what it simulated as text — one line per outcome, with
//! the headline numbers spelled out and every other deterministic field
//! folded into an FNV-1a digest — and compares it with
//! `tests/golden/<name>.txt`. The files are the behaviour contract of the
//! simulator: any byte that changes in them is a change of simulated
//! behaviour and must be explained by the commit that makes it.
//!
//! Set `CONDUIT_REGEN_GOLDEN=1` to rewrite the files instead of checking
//! them (then review the diff).
#![allow(dead_code)]

use std::fmt::{Display, Write as _};
use std::path::PathBuf;

use conduit::{RunOutcome, RunReport};
use conduit_sim::DeviceSnapshot;
use conduit_types::bytes::fnv1a;

/// Whether this test process rewrites golden files instead of checking them.
fn regenerating() -> bool {
    std::env::var("CONDUIT_REGEN_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Compares `actual` with the golden file `name`, or rewrites the file when
/// `CONDUIT_REGEN_GOLDEN` is set. On a mismatch the panic names the first
/// differing line.
pub fn assert_golden(name: &str, actual: &str) {
    if regenerating() {
        let path = golden_path(name);
        if std::fs::read_to_string(&path).ok().as_deref() != Some(actual) {
            std::fs::write(&path, actual)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        }
        return;
    }
    compare(name, actual);
}

/// Like [`assert_golden`] for a file another test owns: never writes, and
/// is skipped while the owner may be rewriting the file.
pub fn assert_same_as_golden(name: &str, actual: &str) {
    if !regenerating() {
        compare(name, actual);
    }
}

fn compare(name: &str, actual: &str) {
    let path = golden_path(name);
    let Ok(expected) = std::fs::read_to_string(&path) else {
        panic!(
            "missing golden file {}; create it with CONDUIT_REGEN_GOLDEN=1",
            path.display()
        );
    };
    if expected == actual {
        return;
    }
    let (mut want, mut got) = (expected.lines(), actual.lines());
    let mut line = 1;
    loop {
        match (want.next(), got.next()) {
            (Some(w), Some(g)) if w == g => line += 1,
            (w, g) => panic!(
                "{name}: simulated output diverged from {} at line {line}\n  \
                 golden: {}\n  actual: {}\n\
                 (rerun with CONDUIT_REGEN_GOLDEN=1 only if the change is intended)",
                path.display(),
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of output>"),
            ),
        }
    }
}

/// One outcome as a golden line: the headline numbers in the clear, then a
/// digest of every deterministic field of the summary and the timeline.
pub fn outcome_line(label: impl Display, o: &RunOutcome) -> String {
    let s = &o.summary;
    let mut all = String::new();
    let _ = write!(
        all,
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        s.workload,
        s.policy,
        s.instructions,
        s.repeats,
        s.total_time,
        s.queueing_time,
        s.service_time,
        s.total_energy,
        s.energy_split,
        s.breakdown,
        s.offload_mix,
        s.latency,
        s.percentiles,
        s.overhead,
        s.device_delta,
    );
    if let Some(a) = &o.artifacts {
        let _ = write!(all, "{:?}", a.timeline);
    }
    let m = &s.offload_mix;
    format!(
        "{label}\tn={}\ttime_ps={}\tqueue_ps={}\tenergy_nj={:?}\tmix={}/{}/{}/{}\t\
         overhead={}/{}\tops={}\tdigest={:016x}",
        s.instructions,
        s.total_time.as_ps(),
        s.queueing_time.as_ps(),
        s.total_energy.as_nj(),
        m.isp,
        m.pud,
        m.ifp,
        m.host,
        s.overhead.count,
        s.overhead.total.as_ps(),
        s.device_delta.device_ops,
        fnv1a(all.as_bytes()),
    )
}

/// An engine-level report as a golden line (same headline numbers as
/// [`outcome_line`], digest over the report's own fields).
pub fn report_line(label: impl Display, r: &RunReport) -> String {
    let all = format!(
        "{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}{:?}",
        r.workload,
        r.policy,
        r.instructions,
        r.total_time,
        r.energy,
        r.breakdown,
        r.offload_mix,
        r.latency,
        r.timeline,
        r.overhead,
    );
    let m = &r.offload_mix;
    format!(
        "{label}\tn={}\ttime_ps={}\tenergy_nj={:?}\tmix={}/{}/{}/{}\toverhead={}/{}\t\
         digest={:016x}",
        r.instructions,
        r.total_time.as_ps(),
        r.energy.total().as_nj(),
        m.isp,
        m.pud,
        m.ifp,
        m.host,
        r.overhead.count,
        r.overhead.total.as_ps(),
        fnv1a(all.as_bytes()),
    )
}

/// A device snapshot as a golden line.
pub fn snapshot_line(label: impl Display, snap: &DeviceSnapshot) -> String {
    format!(
        "{label}\tdevice_ops={}\trewrites={}\tcoherence_syncs={}\tgc={}\tdigest={:016x}",
        snap.device_ops,
        snap.rewrites,
        snap.coherence_syncs,
        snap.gc_invocations,
        fnv1a(format!("{snap:?}").as_bytes()),
    )
}

/// Accumulates golden lines for one file.
pub struct Golden {
    name: &'static str,
    text: String,
    /// Whether this test owns (and may regenerate) the file.
    owner: bool,
}

impl Golden {
    /// Lines for a file this test owns.
    pub fn new(name: &'static str) -> Self {
        Golden {
            name,
            text: String::new(),
            owner: true,
        }
    }

    /// Lines that must reproduce a file another test owns.
    pub fn same_as(name: &'static str) -> Self {
        Golden {
            owner: false,
            ..Golden::new(name)
        }
    }

    pub fn line(&mut self, line: impl Display) {
        let _ = writeln!(self.text, "{line}");
    }

    pub fn outcome(&mut self, label: impl Display, o: &RunOutcome) {
        self.line(outcome_line(label, o));
    }

    pub fn snapshot(&mut self, label: impl Display, snap: &DeviceSnapshot) {
        self.line(snapshot_line(label, snap));
    }

    /// Checks the file (or regenerates it, if this test owns it).
    pub fn check(self) {
        if self.owner {
            assert_golden(self.name, &self.text);
        } else {
            assert_same_as_golden(self.name, &self.text);
        }
    }
}
