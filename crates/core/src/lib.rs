//! HCAPP: Heterogeneous Constant Average Power Processing.
//!
//! The paper's primary contribution: a decentralized, hardware-speed power
//! capping scheme for heterogeneous 2.5D packages. Three controller levels
//! (§3) cooperate *through the power supply network* — the global voltage is
//! the only broadcast channel, so the design scales with chiplet count:
//!
//! 1. [`controller::global::GlobalController`] — a PID loop on the global VR
//!    output with the cube-root power-error term of Eq. 1/2, enforcing the
//!    package power target at a 1 µs period (justified by the Table 1 delay
//!    budget in `hcapp-pdn`).
//! 2. [`controller::domain::DomainController`] — per-chiplet voltage
//!    normalization plus the software priority interface (a register the OS
//!    writes; de-prioritizing a domain by 10% scales its voltage by 0.9×).
//! 3. [`controller::local`] — per-core/SM controllers that trade local
//!    voltage ratio against measured IPC: static thresholds for CPU cores
//!    (CAPP), dynamic thresholds for GPU SMs (GPU-CAPP), pass-through and
//!    adversarial variants for accelerators.
//!
//! [`scheme::ControlScheme`] selects between HCAPP (1 µs), RAPL-like
//! (100 µs), software-like (10 ms) and a fixed-voltage baseline — the four
//! systems the evaluation compares. [`system`] assembles an N-domain package
//! (the paper's CPU+GPU+SHA system is [`system::SystemConfig::paper_system`]),
//! [`coordinator::Simulation`] is the central simulation controller (§4.1),
//! and [`parallel`] provides deterministic parallel execution for sweeps and
//! many-chiplet scaling studies.
//!
//! Attaching a seeded `hcapp-faults` plan to a run
//! ([`coordinator::RunConfig::with_faults`]) turns on the [`health`]
//! degradation layer: watchdogs declare sensors and domains faulted from
//! observable symptoms alone, faulted domains are held at decaying
//! last-good voltage ratios, and a package-wide emergency throttle clamps
//! the system when the (worst-case-estimated) power stays above `P_SPEC`
//! beyond the configured violation window. Fault decisions are pure
//! functions of the plan seed and simulated time, so the serial and
//! parallel executors stay bit-identical under any plan.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod analyze;
pub mod cache;
pub mod controller;
pub mod coordinator;
pub mod health;
pub mod invariants;
pub mod kernel;
pub mod limits;
pub mod outcome;
pub mod parallel;
pub mod pid;
pub mod resume;
pub mod scheme;
pub mod simsan;
pub mod software;
pub mod system;
#[cfg(any(test, feature = "testutil"))]
pub mod testutil;
pub mod tuning;

pub use analyze::run_analyzed;
pub use cache::{run_all_cached, CacheStats, Lookup, RunCache};
pub use controller::domain::DomainController;
pub use controller::global::GlobalController;
pub use controller::local::{
    AdversarialController, CpuIpcStaticController, GpuIpcDynamicController, LocalController,
    PassThroughController,
};
pub use controller::thermal_guard::{ThermalConfig, ThermalGuard};
pub use coordinator::{QuantumCtl, RunConfig, Simulation};
pub use health::{DegradedConfig, HealthState};
pub use limits::PowerLimit;
pub use outcome::{ResilienceCounters, RunOutcome};
pub use pid::{PidController, PidGains};
pub use resume::{
    outcome_digest, run_resumable, total_quanta, ResumeEnd, ResumeOptions, ResumeSummary,
};
pub use scheme::ControlScheme;
pub use software::{ComponentKind, SoftwarePolicy, StaticPriorityPolicy};
pub use system::{ConfigError, DomainSpec, SystemConfig};
