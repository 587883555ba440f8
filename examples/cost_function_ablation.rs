//! Ablation of Conduit's cost function: drop the data-movement term, the
//! queueing term, or the dependence term, or replace Eqn. 1's `max` of the
//! two delays with their sum, and print heat-3d's simulated end-to-end time
//! under each variant.
//!
//! Run with: `cargo run --release --example cost_function_ablation`

use conduit::{CostFunction, Policy, RunRequest, Session};
use conduit_types::{ConduitError, SsdConfig};
use conduit_workloads::{Scale, Workload};

fn main() -> Result<(), ConduitError> {
    let full = CostFunction::conduit();
    let variants = [
        ("full", full),
        (
            "no_data_movement",
            CostFunction {
                include_data_movement: false,
                ..full
            },
        ),
        (
            "no_queue_delay",
            CostFunction {
                include_queue_delay: false,
                ..full
            },
        ),
        (
            "no_dependence",
            CostFunction {
                include_dependence_delay: false,
                ..full
            },
        ),
        (
            "sum_instead_of_max",
            CostFunction {
                combine_with_max: false,
                ..full
            },
        ),
    ];

    // Vectorize once, register once; every ablated run reuses the program.
    let mut session = Session::builder(SsdConfig::small_for_tests()).build();
    let id = session.register(Workload::Heat3d.program(Scale::test())?)?;

    println!("# Cost-function ablation on heat-3d (lower is better)");
    for (name, cf) in variants {
        let outcome = session.submit(&RunRequest::new(id, Policy::Conduit).cost_function(cf))?;
        println!("{name}\t{}", outcome.summary.total_time);
    }
    Ok(())
}
