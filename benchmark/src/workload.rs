//! The benchmark's workloads: job lists generated from a seed.
//!
//! Generation is a pure function of `(workload, seed)`: the seed only picks
//! the simulation seed (workload jitter) and the fault-plan seed, never the
//! shape of the work, so host cost is comparable across seeds while the
//! simulated inputs differ.

use hcapp::coordinator::RunConfig;
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;
use hcapp_workloads::combos::{combo_by_name, combo_suite};

/// RNG stream for the simulation seed.
const SIM_STREAM: u64 = 0x0062_6368_2d73_696d; // "bch-sim"
/// RNG stream for the fault-plan seed.
const FAULT_STREAM: u64 = 0x0062_6368_2d66_6c74; // "bch-flt"

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 3 matrix on the 3-domain paper package through the run
    /// cache, cold then warm.
    Table3Sweep,
    /// One 256-domain package, serial and pooled.
    Scaled256,
    /// The paper package under a fault plan, killed mid-run and resumed
    /// from its checkpoint.
    PaperResumable,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table3Sweep,
        Workload::Scaled256,
        Workload::PaperResumable,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table3Sweep => "table3-sweep",
            Workload::Scaled256 => "scaled-256",
            Workload::PaperResumable => "paper-resumable",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One simulation job.
#[derive(Debug, Clone)]
pub struct Job {
    /// Human-readable cell name (`combo/scheme`).
    pub label: String,
    /// Package.
    pub sys: SystemConfig,
    /// Run.
    pub run: RunConfig,
}

/// A workload instance: its jobs and the knobs of its legs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The `--seed` it was generated from.
    pub seed: u64,
    /// Simulation seed derived from `seed`.
    pub sim_seed: u64,
    /// The job list.
    pub jobs: Vec<Job>,
    /// Index of the job the single-job legs (serial vs pooled, kill and
    /// resume, traced) run.
    pub probe: usize,
    /// Checkpoint cadence of the resumable leg, in control quanta (the
    /// soak harness's cadence for a serial moderate-plan cell).
    pub checkpoint_every: u64,
    /// Completed-quantum count at which the resumable leg is killed.
    pub kill_at: u64,
}

impl Plan {
    /// The probe job.
    pub fn probe_job(&self) -> &Job {
        &self.jobs[self.probe]
    }

    /// Parameters for the provenance block.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        let probe = self.probe_job();
        vec![
            ("jobs", self.jobs.len().to_string()),
            ("sim_seed", self.sim_seed.to_string()),
            ("probe", probe.label.clone()),
            ("probe_domains", probe.sys.domains.len().to_string()),
            ("duration_ns", probe.run.duration.as_nanos().to_string()),
            ("checkpoint_every", self.checkpoint_every.to_string()),
            ("kill_at_quantum", self.kill_at.to_string()),
            (
                "fault_plan",
                probe
                    .run
                    .faults
                    .as_ref()
                    .map_or("none".to_string(), |p| format!("moderate(seed {})", p.seed)),
            ),
        ]
    }
}

/// A space-free scheme tag for job labels (labels are keys in
/// `expected.txt`).
fn scheme_tag(s: ControlScheme) -> &'static str {
    match s {
        ControlScheme::Hcapp => "hcapp",
        ControlScheme::RaplLike => "rapl",
        ControlScheme::SoftwareLike => "sw",
        ControlScheme::FixedVoltage(_) => "fixed",
        ControlScheme::CustomPeriod(_) => "custom",
    }
}

fn derived(seed: u64, stream: u64) -> u64 {
    DeterministicRng::derive(seed, stream).next_u64()
}

/// The four systems the evaluation compares, in Table 3 column order.
fn table3_schemes() -> [ControlScheme; 4] {
    [
        ControlScheme::fixed_baseline(),
        ControlScheme::Hcapp,
        ControlScheme::RaplLike,
        ControlScheme::SoftwareLike,
    ]
}

/// Simulated length of each table3-sweep job.
pub const SWEEP_DURATION: SimDuration = SimDuration::from_millis(4);
/// Simulated length of the scaled-256 job.
pub const SCALED_DURATION: SimDuration = SimDuration::from_micros(600);
/// Simulated length of the paper-resumable job.
pub const RESUMABLE_DURATION: SimDuration = SimDuration::from_millis(3);

/// Generate `workload` from `seed`.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    plan_with(workload, seed, None)
}

/// [`plan`] with every job shortened to `duration` (the tests use short
/// configs of the same shapes).
pub fn plan_with(workload: Workload, seed: u64, duration: Option<SimDuration>) -> Plan {
    let sim_seed = derived(seed, SIM_STREAM);
    let target = PowerLimit::package_pin().guardbanded_target();
    let hi_hi = combo_by_name("Hi-Hi").expect("Hi-Hi is a Table 3 combo");
    let (jobs, probe) = match workload {
        Workload::Table3Sweep => {
            let d = duration.unwrap_or(SWEEP_DURATION);
            let mut jobs = Vec::with_capacity(32);
            let mut probe = 0;
            for combo in combo_suite() {
                for scheme in table3_schemes() {
                    if combo.name == hi_hi.name && scheme == ControlScheme::Hcapp {
                        probe = jobs.len();
                    }
                    jobs.push(Job {
                        label: format!("{}/{}", combo.name, scheme_tag(scheme)),
                        sys: SystemConfig::paper_system(combo, sim_seed),
                        run: RunConfig::new(d, scheme, target),
                    });
                }
            }
            (jobs, probe)
        }
        Workload::Scaled256 => {
            let d = duration.unwrap_or(SCALED_DURATION);
            let (nc, ng, ns) = (86, 85, 85);
            let n = (nc + ng + ns) as f64;
            // The scaling study's rule: the budget grows with the package,
            // so per-chiplet pressure matches the 3-domain paper system.
            let budget = Watt::new(100.0 / 3.0 * n);
            let limit = PowerLimit::new(budget, SimDuration::from_micros(20));
            let sys = SystemConfig::scaled_system(hi_hi, nc, ng, ns, sim_seed)
                .expect("256 chiplets is a non-empty package");
            let run = RunConfig::new(d, ControlScheme::Hcapp, budget * limit.guardband_factor());
            (
                vec![Job {
                    label: format!("{}x256/{}", hi_hi.name, scheme_tag(ControlScheme::Hcapp)),
                    sys,
                    run,
                }],
                0,
            )
        }
        Workload::PaperResumable => {
            let d = duration.unwrap_or(RESUMABLE_DURATION);
            let plan = FaultPlan::moderate(derived(seed, FAULT_STREAM));
            let run = RunConfig::new(d, ControlScheme::Hcapp, target).with_faults(plan);
            (
                vec![Job {
                    label: format!(
                        "{}/{}+moderate",
                        hi_hi.name,
                        scheme_tag(ControlScheme::Hcapp)
                    ),
                    sys: SystemConfig::paper_system(hi_hi, sim_seed),
                    run,
                }],
                0,
            )
        }
    };
    let total = hcapp::resume::total_quanta(&jobs[probe].sys, &jobs[probe].run);
    Plan {
        workload,
        seed,
        sim_seed,
        jobs,
        probe,
        checkpoint_every: 64,
        // Mid-run and off the checkpoint grid, so the resume re-executes
        // the quanta between the last checkpoint and the kill.
        kill_at: (total / 2 + 13).min(total.saturating_sub(1)).max(1),
    }
}
