//! `repro` output against the golden oracle: the quick-scale figure sweep
//! (`repro all --quick`) and the smoke runs of the serving scenarios, each
//! byte for byte as the binary prints it. The files were recorded while the
//! engine still had its scalar, strip-batched and pooled run loops, and all
//! three printed them identically. See `tests/common` for
//! `CONDUIT_REGEN_GOLDEN=1`.

mod common;

use common::assert_golden;
use conduit_bench::arrivals::arrival_sweep_report;
use conduit_bench::faults::fault_sweep_report;
use conduit_bench::fleet::fleet_sweep_report;
use conduit_bench::interference::interference_report;
use conduit_bench::warm::warm_pool_report;
use conduit_bench::{section, Harness};

#[test]
fn figure_sweep_matches_the_golden_output() {
    assert_golden("repro_all_quick", &Harness::quick().all());
}

/// The paper-scale sweep (`repro all`), where PuD bank pools saturate: in
/// fig7a alone thousands of PuD instructions find no free subarray.
#[test]
fn paper_scale_figure_sweep_matches_the_golden_output() {
    assert_golden("repro_all_paper", &Harness::paper().all());
}

/// Checks one smoke target's `repro <target> --smoke` output.
fn smoke(target: &str, report: fn(bool) -> String) {
    let name = format!("repro_{}_smoke", target.replace('-', "_"));
    assert_golden(&name, &section(target, &report(true)));
}

#[test]
fn warm_pool_smoke_matches_the_golden_output() {
    smoke("warm-pool", warm_pool_report);
}

#[test]
fn arrival_sweep_smoke_matches_the_golden_output() {
    smoke("arrival-sweep", arrival_sweep_report);
}

#[test]
fn fault_sweep_smoke_matches_the_golden_output() {
    smoke("fault-sweep", fault_sweep_report);
}

#[test]
fn interference_smoke_matches_the_golden_output() {
    smoke("interference", interference_report);
}

#[test]
fn fleet_sweep_smoke_matches_the_golden_output() {
    smoke("fleet-sweep", fleet_sweep_report);
}
