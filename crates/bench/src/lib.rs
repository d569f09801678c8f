//! Shared helpers for the Criterion benches.
//!
//! The benches live in `benches/`:
//!
//! * `controllers` — per-control-action cost of the PID, the global
//!   controller, and the local controllers (the paper budgets 10–30 ns of
//!   controller delay in Table 1; these benches show the *simulated*
//!   controllers are orders of magnitude below the simulation tick).
//! * `components` — per-tick cost of each chiplet simulator and the hot
//!   kernel structures (windows, cursors).
//! * `system` — whole-package simulation throughput per scheme.
//! * `scaling` — serial vs chiplet-parallel executor across package sizes.
//! * `figures` — an abbreviated (2 ms) run of every table/figure harness,
//!   so `cargo bench` exercises each reproduction target end to end.

#![warn(missing_docs)]

use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_sim_core::time::SimDuration;
use hcapp_workloads::combos::combo_suite;

/// A ready-to-run paper-system simulation for benches.
pub fn bench_simulation(scheme: ControlScheme, millis: u64) -> Simulation {
    let sys = SystemConfig::paper_system(combo_suite()[3], 7);
    let limit = PowerLimit::package_pin();
    let run = RunConfig::new(
        SimDuration::from_millis(millis),
        scheme,
        limit.guardbanded_target(),
    );
    Simulation::new(sys, run)
}

/// A scaled-system simulation for the scaling benches.
pub fn scaled_simulation(n_each: usize, millis: u64) -> Simulation {
    let sys = SystemConfig::scaled_system(combo_suite()[3], n_each, n_each, n_each, 7)
        .expect("bench scales are nonzero");
    let limit = PowerLimit::package_pin();
    let run = RunConfig::new(
        SimDuration::from_millis(millis),
        ControlScheme::Hcapp,
        limit.guardbanded_target(),
    );
    Simulation::new(sys, run)
}

/// A scaled fixed-baseline simulation with an explicit executor batch
/// bound, for the per-quantum (`batch_quanta = 1`) vs batched dispatch
/// comparison. The fixed scheme has no per-quantum feedback, so this is
/// the path where multi-quantum batching actually engages.
pub fn scaled_fixed_simulation(n_each: usize, millis: u64, batch_quanta: usize) -> Simulation {
    let sys = SystemConfig::scaled_system(combo_suite()[3], n_each, n_each, n_each, 7)
        .expect("bench scales are nonzero");
    let limit = PowerLimit::package_pin();
    let run = RunConfig::new(
        SimDuration::from_millis(millis),
        ControlScheme::fixed_baseline(),
        limit.guardbanded_target(),
    )
    .with_batch_quanta(batch_quanta);
    Simulation::new(sys, run)
}
