//! Package assembly: domains, chiplets and their controllers.
//!
//! A package is a list of [`DomainSpec`]s; the paper's target system
//! ([`SystemConfig::paper_system`]) is CPU + GPU + SHA, but nothing limits
//! the domain count — the scaling study instantiates dozens of chiplets to
//! demonstrate HCAPP's decentralized scaling claim.
//!
//! The runtime [`Domain`] bundles one chiplet simulator with its level-2
//! domain controller, its level-3 local controller, and its branch of the
//! supply network. [`Domain::run_quantum`] advances the domain through one
//! control quantum against a precomputed global-voltage schedule; because
//! the global voltage is the *only* coupling between domains inside a
//! quantum, the serial and parallel coordinators share this code and produce
//! bit-identical results.

use hcapp_accel_sim::{ShaAccelerator, ShaConfig};
use hcapp_power_model::MemoryStack;
use hcapp_cpu_sim::{CpuChiplet, CpuConfig};
use hcapp_gpu_sim::{GpuChiplet, GpuConfig};
use hcapp_faults::CtlFault;
use hcapp_pdn::{BroadcastLink, RippleInjector, RippleSpec, SupplyNetwork};
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_telemetry::TraceEvent;
use hcapp_workloads::combos::Combo;
use hcapp_workloads::program::WorkloadSource;
use hcapp_workloads::spec::BenchmarkSpec;

use crate::controller::domain::DomainController;
use crate::controller::local::{
    AdversarialController, CpuIpcStaticController, GpuIpcDynamicController, LocalController,
    PassThroughController,
};
use crate::controller::thermal_guard::{ThermalConfig, ThermalGuard};
use crate::coordinator::QuantumCtl;
use crate::pid::PidGains;
use crate::software::ComponentKind;

/// System-construction errors. Constructors that take user-supplied
/// shape parameters (scaled chiplet counts) return these instead of
/// building a package that [`SystemConfig::validate`] would panic on
/// when the simulation starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The requested package has no domains at all.
    EmptyPackage,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::EmptyPackage => {
                write!(f, "scaled system needs at least one chiplet (cpu + gpu + sha counts are all zero)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which local controller an accelerator domain runs (§3.3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelLocalKind {
    /// The default pass-through with voltage protection.
    PassThrough,
    /// The adversarial always-max design.
    Adversarial,
}

/// Specification of one domain (chiplet + workload).
#[derive(Debug, Clone)]
pub enum DomainSpec {
    /// A CPU chiplet running a PARSEC-class workload (generated or a
    /// recorded trace).
    Cpu {
        /// Chiplet configuration.
        config: CpuConfig,
        /// Workload source.
        workload: WorkloadSource,
    },
    /// A GPU chiplet running a Rodinia-class workload (generated or a
    /// recorded trace).
    Gpu {
        /// Chiplet configuration.
        config: GpuConfig,
        /// Workload source.
        workload: WorkloadSource,
    },
    /// The SHA accelerator with its modelled stream.
    Sha {
        /// Accelerator configuration.
        config: ShaConfig,
        /// Local controller variant.
        local: AccelLocalKind,
    },
    /// A fixed-voltage memory stack (§3.2): its domain controller runs in
    /// fixed mode and ignores the global voltage; its traffic follows the
    /// given pattern.
    Memory {
        /// The stack's power model.
        stack: MemoryStack,
        /// Traffic utilization pattern (the activity channel is used as the
        /// traffic level).
        traffic: BenchmarkSpec,
    },
}

impl DomainSpec {
    /// The component kind of this spec.
    pub fn kind(&self) -> ComponentKind {
        match self {
            DomainSpec::Cpu { .. } => ComponentKind::Cpu,
            DomainSpec::Gpu { .. } => ComponentKind::Gpu,
            DomainSpec::Sha { .. } => ComponentKind::Sha,
            DomainSpec::Memory { .. } => ComponentKind::Memory,
        }
    }
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The domains on the interposer.
    pub domains: Vec<DomainSpec>,
    /// Run seed (workload jitter, per-unit decorrelation).
    pub seed: u64,
    /// Simulation tick (default 100 ns — finer than every delay in the
    /// Table 1 budget).
    pub tick: SimDuration,
    /// Global controller PID gains (Eq. 2).
    pub pid: PidGains,
    /// Initial global VR output voltage.
    pub v_init: Volt,
    /// GPU domain-voltage target for the dynamic-IPC local controller.
    pub gpu_domain_target: Volt,
    /// Power sensor pipeline delay in ticks (Table 1 sensing row).
    pub sensor_delay_ticks: usize,
    /// Power sensor resolution in watts (0 = ideal).
    pub sensor_resolution: f64,
    /// Supply-network propagation delay in ticks (Table 1 PSN row).
    pub network_delay_ticks: usize,
    /// Supply-network branch resistance in ohms (0 disables IR drop).
    pub network_resistance: f64,
    /// GPU/SHA domain scale relative to the global voltage (§4.3/§4.4:
    /// "scales the global voltage by 75%").
    pub low_voltage_domain_scale: f64,
    /// Run the level-3 local controllers (true for every scheme in the
    /// paper except the fixed baseline; the local-controller ablation turns
    /// them off while keeping the global loop).
    pub local_controllers_enabled: bool,
    /// Optional supply ripple / droop-glitch injection per branch (failure
    /// injection; `None` = clean rail, the evaluation default).
    pub ripple: Option<RippleSpec>,
    /// Optional per-domain thermal guard (§3.3 extension). `None` matches
    /// the paper's assumption that the power limit sits below the TDP.
    pub thermal: Option<ThermalConfig>,
}

impl SystemConfig {
    /// The paper's target system: one CPU chiplet, one GPU chiplet, one SHA
    /// accelerator, running `combo` from Table 3.
    pub fn paper_system(combo: Combo, seed: u64) -> Self {
        SystemConfig {
            domains: vec![
                DomainSpec::Cpu {
                    config: CpuConfig::default(),
                    workload: combo.cpu.spec().into(),
                },
                DomainSpec::Gpu {
                    config: GpuConfig::default(),
                    workload: combo.gpu.spec().into(),
                },
                DomainSpec::Sha {
                    config: ShaConfig::default(),
                    local: AccelLocalKind::PassThrough,
                },
            ],
            seed,
            tick: SimDuration::from_nanos(100),
            pid: PidGains::paper_default(),
            v_init: Volt::new(0.95),
            gpu_domain_target: Volt::new(0.72),
            sensor_delay_ticks: 1,
            sensor_resolution: 0.1,
            network_delay_ticks: 1,
            network_resistance: 0.0,
            low_voltage_domain_scale: 0.75,
            local_controllers_enabled: true,
            ripple: None,
            thermal: None,
        }
    }

    /// The paper system plus a fixed-voltage HBM stack — exercises §3.2's
    /// constant-voltage domains end to end. The stack's performance is
    /// scheme-independent by construction, so Eq. 3 comparisons should use
    /// the compute components only ([`ComponentKind::ALL`]).
    pub fn paper_system_with_memory(combo: Combo, seed: u64) -> Self {
        use hcapp_workloads::spec::{DurRange, PhasePattern};
        let mut sys = Self::paper_system(combo, seed);
        sys.domains.push(DomainSpec::Memory {
            stack: MemoryStack::hbm_default(),
            traffic: BenchmarkSpec {
                name: "memory-traffic",
                pattern: PhasePattern::Steady {
                    activity: 0.5,
                    jitter: 0.2,
                    dur: DurRange::micros(500.0, 2_000.0),
                },
                mem_intensity: 0.0,
                mem_jitter: 0.0,
            },
        });
        sys
    }

    /// A many-chiplet system for the scaling study: `n_cpu` CPU and `n_gpu`
    /// GPU chiplets plus `n_sha` accelerators, cycling through the combo's
    /// workloads.
    ///
    /// Rejects an all-zero chiplet count here, at construction, instead of
    /// letting the empty package trip [`SystemConfig::validate`]'s panic
    /// inside `Simulation::new` — scaled counts are usually user input
    /// (CLI flags, bench knobs), so they fail fast with a value error.
    pub fn scaled_system(
        combo: Combo,
        n_cpu: usize,
        n_gpu: usize,
        n_sha: usize,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        if n_cpu + n_gpu + n_sha == 0 {
            return Err(ConfigError::EmptyPackage);
        }
        let mut base = Self::paper_system(combo, seed);
        let mut domains = Vec::with_capacity(n_cpu + n_gpu + n_sha);
        for _ in 0..n_cpu {
            domains.push(DomainSpec::Cpu {
                config: CpuConfig::default(),
                workload: combo.cpu.spec().into(),
            });
        }
        for _ in 0..n_gpu {
            domains.push(DomainSpec::Gpu {
                config: GpuConfig::default(),
                workload: combo.gpu.spec().into(),
            });
        }
        for _ in 0..n_sha {
            domains.push(DomainSpec::Sha {
                config: ShaConfig::default(),
                local: AccelLocalKind::PassThrough,
            });
        }
        base.domains = domains;
        Ok(base)
    }

    /// Replace the accelerator's local controller with the adversarial
    /// variant (§3.3.3 experiment).
    pub fn with_adversarial_accel(mut self) -> Self {
        for d in &mut self.domains {
            if let DomainSpec::Sha { local, .. } = d {
                *local = AccelLocalKind::Adversarial;
            }
        }
        self
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics on an empty domain list or bad tick.
    pub fn validate(&self) {
        assert!(!self.domains.is_empty(), "system needs at least one domain");
        assert!(!self.tick.is_zero(), "zero tick");
        self.pid.validate();
        assert!(self.low_voltage_domain_scale > 0.0);
    }

    /// Theoretical peak package power at global voltage `v` (for
    /// calibration checks and reports).
    pub fn peak_power_at(&self, v: Volt) -> Watt {
        let mut total = Watt::ZERO;
        for d in &self.domains {
            total += match d {
                DomainSpec::Cpu { config, .. } => config.peak_power_at(
                    v.clamp(config.v_min, config.v_max),
                ),
                DomainSpec::Gpu { config, .. } => {
                    let vd = Volt::new(v.value() * self.low_voltage_domain_scale);
                    config.peak_power_at(vd.clamp(config.v_min, config.v_max))
                }
                DomainSpec::Sha { config, .. } => {
                    let vd = Volt::new(v.value() * self.low_voltage_domain_scale);
                    Watt::new(config.busy_power_w(vd))
                }
                DomainSpec::Memory { stack, .. } => stack.static_power + stack.peak_dynamic,
            };
        }
        total
    }
}

/// One chiplet simulator behind a uniform stepping interface.
#[derive(Debug, Clone)]
pub enum ChipletSim {
    /// CPU chiplet.
    Cpu(CpuChiplet),
    /// GPU chiplet.
    Gpu(GpuChiplet),
    /// SHA accelerator.
    Sha(ShaAccelerator),
    /// Fixed-voltage memory stack with its traffic pattern.
    Memory(MemoryStack, hcapp_workloads::cursor::PhaseCursor),
}

impl ChipletSim {
    /// Number of locally-controllable units.
    pub fn units(&self) -> usize {
        match self {
            ChipletSim::Cpu(c) => c.units(),
            ChipletSim::Gpu(g) => g.units(),
            ChipletSim::Sha(_) | ChipletSim::Memory(..) => 1,
        }
    }

    /// Advance one tick through a borrowed [`StepFrame`] — the
    /// quantum-stepper kernel's dispatch point. Adds this chiplet's power
    /// to `frame.power_acc` (each chiplet's `step_into` is pinned by a
    /// golden tick-digest unit test, and the whole path by the
    /// golden-digest corpus).
    ///
    /// [`StepFrame`]: hcapp_sim_core::frame::StepFrame
    pub fn step_into(&mut self, frame: &mut hcapp_sim_core::frame::StepFrame<'_>) {
        match self {
            ChipletSim::Cpu(c) => c.step_into(frame),
            ChipletSim::Gpu(g) => g.step_into(frame),
            ChipletSim::Sha(s) => s.step_into(frame),
            ChipletSim::Memory(m, traffic) => {
                // The traffic pattern advances in wall-clock time (memory
                // demand does not speed up with the compute voltage), then
                // the stack integrates the sampled activity.
                traffic.advance(frame.dt.as_nanos() as f64);
                m.set_traffic(traffic.sample().activity);
                *frame.power_acc += m.step(frame.dt).value();
            }
        }
    }

    /// Per-unit IPC fractions from the last step (empty-slice semantics for
    /// the accelerator: pass-through controllers ignore it).
    pub fn ipc_fractions(&self) -> &[f64] {
        match self {
            ChipletSim::Cpu(c) => c.ipc_fractions(),
            ChipletSim::Gpu(g) => g.ipc_fractions(),
            ChipletSim::Sha(_) | ChipletSim::Memory(..) => &[1.0],
        }
    }

    /// Work completed so far (nominal ns for CPU/GPU, gigabits for SHA).
    pub fn work_done(&self) -> f64 {
        match self {
            ChipletSim::Cpu(c) => c.work_done(),
            ChipletSim::Gpu(g) => g.work_done(),
            ChipletSim::Sha(s) => s.work_done(),
            ChipletSim::Memory(m, _) => m.work_done(),
        }
    }
}

/// A runtime domain: chiplet + controllers + supply branch.
#[derive(Debug)]
pub struct Domain {
    /// Position in the system's domain list (stable id for telemetry).
    pub index: usize,
    /// Component kind (for reports and software policies).
    pub kind: ComponentKind,
    /// Level-2 controller.
    pub ctl: DomainController,
    /// Level-3 controller.
    pub local: Box<dyn LocalController>,
    /// The chiplet simulator.
    pub sim: ChipletSim,
    /// This domain's branch of the supply network.
    pub network: SupplyNetwork,
    /// Receiver end of the global-voltage broadcast (fault-aware: models
    /// delayed and lost updates, holds the last good value on loss).
    pub link: BroadcastLink,
    /// Nominal work rate (work units per ns at the nominal operating point)
    /// — normalizes progress for software policies.
    pub nominal_rate: f64,
    /// Optional ripple/glitch injector for this branch.
    pub ripple: Option<RippleInjector>,
    /// Optional thermal guard (§3.3 extension).
    pub thermal: Option<ThermalGuard>,
    /// Workhorse buffer of per-unit voltages (reused every tick).
    unit_voltages: Vec<Volt>,
    /// Chiplet power from the previous tick (IR-drop input).
    pub last_power: Watt,
    /// Last delivered (post-network) global voltage seen by this domain.
    pub last_delivered: Volt,
}

impl Domain {
    /// Build the runtime domain for a spec.
    pub fn build(spec: &DomainSpec, cfg: &SystemConfig, index: usize) -> Domain {
        // Stream ids: give each domain a wide id band so unit streams never
        // collide across domains.
        let stream_base = 1_000 * (index as u64 + 1);
        let (kind, ctl, local, sim, nominal_rate): (
            ComponentKind,
            DomainController,
            Box<dyn LocalController>,
            ChipletSim,
            f64,
        ) = match spec {
            DomainSpec::Cpu { config, workload } => {
                let chiplet =
                    CpuChiplet::new(config.clone(), workload.clone(), cfg.seed, stream_base);
                let local: Box<dyn LocalController> = if cfg.local_controllers_enabled {
                    Box::new(CpuIpcStaticController::new(chiplet.units()))
                } else {
                    Box::new(AdversarialController::new())
                };
                (
                    ComponentKind::Cpu,
                    DomainController::scaled(1.0, config.v_min, config.v_max),
                    local,
                    ChipletSim::Cpu(chiplet),
                    1.0,
                )
            }
            DomainSpec::Gpu { config, workload } => {
                let chiplet =
                    GpuChiplet::new(config.clone(), workload.clone(), cfg.seed, stream_base);
                let local: Box<dyn LocalController> = if cfg.local_controllers_enabled {
                    Box::new(GpuIpcDynamicController::new(
                        chiplet.units(),
                        cfg.gpu_domain_target,
                    ))
                } else {
                    Box::new(AdversarialController::new())
                };
                (
                    ComponentKind::Gpu,
                    DomainController::scaled(
                        cfg.low_voltage_domain_scale,
                        config.v_min,
                        config.v_max,
                    ),
                    local,
                    ChipletSim::Gpu(chiplet),
                    1.0,
                )
            }
            DomainSpec::Memory { stack, traffic } => {
                let cursor =
                    hcapp_workloads::cursor::PhaseCursor::new(*traffic, cfg.seed, stream_base);
                let rate = stack.peak_bandwidth * traffic.mean_activity() * 1e-9;
                (
                    ComponentKind::Memory,
                    DomainController::fixed(stack.voltage),
                    Box::new(PassThroughController::new()) as Box<dyn LocalController>,
                    ChipletSim::Memory(stack.clone(), cursor),
                    rate,
                )
            }
            DomainSpec::Sha { config, local } => {
                let accel = ShaAccelerator::new(config.clone());
                let nominal_v = Volt::new(cfg.v_init.value() * cfg.low_voltage_domain_scale);
                let rate = config.throughput_gbps(nominal_v) * 1e-9; // gbits per ns
                let local: Box<dyn LocalController> = match local {
                    AccelLocalKind::PassThrough => Box::new(PassThroughController::new()),
                    AccelLocalKind::Adversarial => Box::new(AdversarialController::new()),
                };
                (
                    ComponentKind::Sha,
                    DomainController::scaled(
                        cfg.low_voltage_domain_scale,
                        config.v_min,
                        config.v_max,
                    ),
                    local,
                    ChipletSim::Sha(accel),
                    rate,
                )
            }
        };
        let units = sim.units();
        Domain {
            index,
            kind,
            ctl,
            local,
            sim,
            network: SupplyNetwork::new(1, cfg.network_delay_ticks, cfg.network_resistance),
            link: BroadcastLink::new(),
            nominal_rate,
            ripple: cfg
                .ripple
                .map(|spec| RippleInjector::new(spec, cfg.seed, 500_000 + index as u64)),
            thermal: cfg.thermal.map(ThermalGuard::new),
            unit_voltages: vec![Volt::ZERO; units],
            last_power: Watt::ZERO,
            last_delivered: cfg.v_init,
        }
    }

    /// Run one control quantum under the coordinator's command `ctl`.
    ///
    /// `v_global` holds the global VR output for each tick of the quantum
    /// (precomputed by the coordinator). If `update_local` is set, the local
    /// controller is updated once at the quantum boundary (from the IPC
    /// fractions of the previous quantum, matching the paper's control
    /// ordering). Per-tick chiplet powers are *added into* `power_acc`
    /// (which the coordinators pre-zero or share across domains).
    ///
    /// `ctl` carries the priority write, the degradation throttle and any
    /// active faults: a `DomainStuck` fault makes the priority register
    /// ignore the write, a `LocalSilent` fault skips the level-3 update
    /// (the telemetry events still fire — an observer sees the *stale*
    /// decision a silent controller keeps applying), and a link fault
    /// perturbs the broadcast the domain receives. The returned heartbeat
    /// is `false` exactly when a controller fault was active — the
    /// observable "did the domain accept commands" signal the coordinator's
    /// watchdogs consume.
    ///
    /// When `events` is `Some`, the boundary-time level-2/level-3 control
    /// observations (`DomainScale`, `LocalDecision`) are appended to it —
    /// the coordinators then merge per-domain buffers in domain order so
    /// serial and parallel traces are identical.
    #[allow(clippy::too_many_arguments)]
    pub fn run_quantum(
        &mut self,
        t0: hcapp_sim_core::time::SimTime,
        v_global: &[f64],
        update_local: bool,
        ctl: &QuantumCtl,
        tick: SimDuration,
        power_acc: &mut [f64],
        events: Option<&mut Vec<TraceEvent>>,
    ) -> bool {
        debug_assert_eq!(v_global.len(), power_acc.len());
        let thermal_derate = self.quantum_boundary(t0, v_global.len(), update_local, ctl, tick, events);
        for i in 0..v_global.len() {
            let vg = self.link.receive(v_global, i, ctl.link_fault);
            let mut delivered = self.network.deliver(0, Volt::new(vg), self.last_power);
            if let Some(injector) = self.ripple.as_mut() {
                delivered = injector.perturb(delivered, t0 + tick * i as u64);
            }
            self.last_delivered = delivered;
            // The throttle multiply is a bitwise identity at 1.0, so clean
            // runs are unperturbed by the degradation layer.
            let v_dom = Volt::new(
                self.ctl.domain_voltage(delivered).value() * thermal_derate * ctl.throttle,
            );
            let ratios = self.local.ratios();
            if ratios.len() == 1 {
                let v = Volt::new(v_dom.value() * ratios[0]);
                self.unit_voltages.fill(v);
            } else {
                for (uv, &r) in self.unit_voltages.iter_mut().zip(ratios) {
                    *uv = Volt::new(v_dom.value() * r);
                }
            }
            // The chiplet adds its tick power into a fresh accumulator
            // (`0.0 + p` is bitwise `p` for the non-negative powers the
            // models produce), which `last_power` and the slot then take.
            let mut p = 0.0f64;
            let mut frame =
                hcapp_sim_core::frame::StepFrame::new(&self.unit_voltages, tick, &mut p);
            self.sim.step_into(&mut frame);
            self.last_power = Watt::new(p);
            power_acc[i] += p;
        }
        ctl.ctl_fault.is_none()
    }

    /// The quantum-boundary control work of [`Domain::run_quantum`]:
    /// priority write, optional level-3 update (with its telemetry
    /// observations), and the thermal-guard integration. Returns the
    /// thermal derate factor for the quantum's tick loop.
    fn quantum_boundary(
        &mut self,
        t0: hcapp_sim_core::time::SimTime,
        quantum_ticks: usize,
        update_local: bool,
        ctl: &QuantumCtl,
        tick: SimDuration,
        events: Option<&mut Vec<TraceEvent>>,
    ) -> f64 {
        if ctl.ctl_fault != Some(CtlFault::DomainStuck) {
            self.ctl.set_priority(ctl.priority);
        }
        if update_local {
            let v_dom = self.ctl.domain_voltage(self.last_delivered);
            let pre_mean_ipc = if events.is_some() {
                mean(self.sim.ipc_fractions())
            } else {
                0.0
            };
            if ctl.ctl_fault != Some(CtlFault::LocalSilent) {
                self.local.update(self.sim.ipc_fractions(), v_dom);
            }
            if let Some(buf) = events {
                let delivered = self.last_delivered;
                let normalized = if delivered.value() > 0.0 {
                    v_dom.value() / delivered.value()
                } else {
                    f64::NAN
                };
                buf.push(TraceEvent::DomainScale {
                    t: t0,
                    domain: self.index as u32,
                    kind: self.kind.name(),
                    v_domain: v_dom,
                    normalized_v: normalized,
                    priority: self.ctl.priority(),
                });
                let (up, down) = self
                    .local
                    .decision_thresholds()
                    .unwrap_or((f64::NAN, f64::NAN));
                buf.push(TraceEvent::LocalDecision {
                    t: t0,
                    domain: self.index as u32,
                    controller: self.local.name(),
                    mean_ipc: pre_mean_ipc,
                    up_threshold: up,
                    down_threshold: down,
                    mean_ratio: mean(self.local.ratios()),
                });
            }
        }
        // §3.3 thermal extension: the guard integrates last quantum's power
        // and derates this quantum's domain voltage while over-temperature.
        match self.thermal.as_mut() {
            Some(guard) => {
                let quantum = tick * quantum_ticks as u64;
                guard.update(self.last_power, quantum)
            }
            None => 1.0,
        }
    }
}

/// Arithmetic mean of a slice (NaN for an empty slice, which telemetry
/// serializes as null).
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

impl hcapp_sim_core::state::Snapshot for ChipletSim {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        match self {
            ChipletSim::Cpu(c) => c.save_state(w),
            ChipletSim::Gpu(g) => g.save_state(w),
            ChipletSim::Sha(s) => s.save_state(w),
            ChipletSim::Memory(m, traffic) => {
                m.save_state(w);
                traffic.save_state(w);
            }
        }
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        match self {
            ChipletSim::Cpu(c) => c.load_state(r),
            ChipletSim::Gpu(g) => g.load_state(r),
            ChipletSim::Sha(s) => s.load_state(r),
            ChipletSim::Memory(m, traffic) => {
                m.load_state(r)?;
                traffic.load_state(r)
            }
        }
    }
}

impl hcapp_sim_core::state::Snapshot for Domain {
    /// Everything `run_quantum` mutates, in declaration order. Deliberately
    /// *not* saved: `index`/`kind`/`nominal_rate` (configuration) and
    /// `unit_voltages` (a scratch buffer fully overwritten every tick
    /// before it is read).
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        self.ctl.save_state(w);
        self.local.save_state(w);
        self.sim.save_state(w);
        self.network.save_state(w);
        self.link.save_state(w);
        w.bool("domain.ripple", self.ripple.is_some());
        if let Some(injector) = self.ripple.as_ref() {
            injector.save_state(w);
        }
        w.bool("domain.thermal", self.thermal.is_some());
        if let Some(guard) = self.thermal.as_ref() {
            guard.save_state(w);
        }
        w.f64("domain.last_power", self.last_power.value());
        w.f64("domain.last_delivered", self.last_delivered.value());
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.ctl.load_state(r)?;
        self.local.load_state(r)?;
        self.sim.load_state(r)?;
        self.network.load_state(r)?;
        self.link.load_state(r)?;
        // Optional-part presence is fixed by the system config; a mismatch
        // means the checkpoint belongs to a different configuration.
        if r.bool("domain.ripple")? != self.ripple.is_some() {
            return None;
        }
        if let Some(injector) = self.ripple.as_mut() {
            injector.load_state(r)?;
        }
        if r.bool("domain.thermal")? != self.thermal.is_some() {
            return None;
        }
        if let Some(guard) = self.thermal.as_mut() {
            guard.load_state(r)?;
        }
        self.last_power = Watt::new(r.f64("domain.last_power")?);
        self.last_delivered = Volt::new(r.f64("domain.last_delivered")?);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_workloads::combos::combo_suite;

    fn cfg() -> SystemConfig {
        SystemConfig::paper_system(combo_suite()[3], 7) // Hi-Hi
    }

    #[test]
    fn paper_system_shape() {
        let c = cfg();
        c.validate();
        assert_eq!(c.domains.len(), 3);
        assert_eq!(c.domains[0].kind(), ComponentKind::Cpu);
        assert_eq!(c.domains[1].kind(), ComponentKind::Gpu);
        assert_eq!(c.domains[2].kind(), ComponentKind::Sha);
    }

    #[test]
    fn peak_power_exceeds_budget() {
        // The whole point of power capping: the package can physically draw
        // more than the 100 W budget.
        let c = cfg();
        let peak = c.peak_power_at(Volt::new(1.0)).value();
        assert!(peak > 100.0, "peak {peak} W should exceed the budget");
        // …but not absurdly more (calibration sanity).
        assert!(peak < 200.0, "peak {peak} W implausibly high");
    }

    #[test]
    fn domains_build_with_expected_units() {
        let c = cfg();
        let d0 = Domain::build(&c.domains[0], &c, 0);
        let d1 = Domain::build(&c.domains[1], &c, 1);
        let d2 = Domain::build(&c.domains[2], &c, 2);
        assert_eq!(d0.sim.units(), 8);
        assert_eq!(d1.sim.units(), 15);
        assert_eq!(d2.sim.units(), 1);
        assert!(d2.nominal_rate > 0.0);
    }

    #[test]
    fn run_quantum_accumulates_power() {
        let c = cfg();
        let mut d = Domain::build(&c.domains[0], &c, 0);
        let v_global = vec![0.95; 10];
        let mut acc = vec![0.0; 10];
        let ok = d.run_quantum(
            hcapp_sim_core::time::SimTime::ZERO,
            &v_global,
            true,
            &QuantumCtl::clean(1.0),
            c.tick,
            &mut acc,
            None,
        );
        assert!(ok, "fault-free quantum must report a heartbeat");
        assert!(acc.iter().all(|&p| p > 0.0));
        assert!(d.sim.work_done() > 0.0);
    }

    #[test]
    fn quantum_splitting_is_equivalent() {
        // One 20-tick quantum == two 10-tick quanta (no local updates).
        let c = cfg();
        let mut whole = Domain::build(&c.domains[1], &c, 1);
        let mut split = Domain::build(&c.domains[1], &c, 1);
        let v = vec![0.92; 20];
        let mut acc_whole = vec![0.0; 20];
        let clean = QuantumCtl::clean(1.0);
        whole.run_quantum(hcapp_sim_core::time::SimTime::ZERO, &v, false, &clean, c.tick, &mut acc_whole, None);
        let mut acc_a = vec![0.0; 10];
        let mut acc_b = vec![0.0; 10];
        split.run_quantum(hcapp_sim_core::time::SimTime::ZERO, &v[..10], false, &clean, c.tick, &mut acc_a, None);
        split.run_quantum(hcapp_sim_core::time::SimTime::from_nanos(1_000), &v[10..], false, &clean, c.tick, &mut acc_b, None);
        let rejoined: Vec<f64> = acc_a.into_iter().chain(acc_b).collect();
        assert_eq!(acc_whole, rejoined);
        assert_eq!(whole.sim.work_done(), split.sim.work_done());
    }

    #[test]
    fn scaled_system_counts() {
        let c = SystemConfig::scaled_system(combo_suite()[0], 4, 3, 2, 1).unwrap();
        assert_eq!(c.domains.len(), 9);
        c.validate();
    }

    #[test]
    fn scaled_system_rejects_zero_domains() {
        let e = SystemConfig::scaled_system(combo_suite()[0], 0, 0, 0, 1).unwrap_err();
        assert_eq!(e, crate::system::ConfigError::EmptyPackage);
        assert!(e.to_string().contains("at least one chiplet"));
        // Any single nonzero count is a valid (if degenerate) package.
        for (nc, ng, ns) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
            let c = SystemConfig::scaled_system(combo_suite()[0], nc, ng, ns, 1).unwrap();
            assert_eq!(c.domains.len(), 1);
            c.validate();
        }
    }

    #[test]
    fn adversarial_toggle() {
        let c = cfg().with_adversarial_accel();
        let d = Domain::build(&c.domains[2], &c, 2);
        assert_eq!(d.local.name(), "adversarial");
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use crate::coordinator::{RunConfig, Simulation};
    use crate::limits::PowerLimit;
    use crate::scheme::ControlScheme;
    use hcapp_workloads::combos::combo_suite;

    #[test]
    fn memory_domain_holds_fixed_voltage() {
        let sys = SystemConfig::paper_system_with_memory(combo_suite()[3], 5);
        assert_eq!(sys.domains.len(), 4);
        let d = Domain::build(&sys.domains[3], &sys, 3);
        assert_eq!(d.kind, ComponentKind::Memory);
        // Fixed mode: domain voltage ignores the global voltage entirely.
        let lo = d.ctl.domain_voltage(Volt::new(0.6));
        let hi = d.ctl.domain_voltage(Volt::new(1.3));
        assert_eq!(lo, hi);
        assert!((lo.value() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn memory_work_rate_is_scheme_independent() {
        let limit = PowerLimit::package_pin();
        let mut works = Vec::new();
        for scheme in [ControlScheme::fixed_baseline(), ControlScheme::Hcapp] {
            let sys = SystemConfig::paper_system_with_memory(combo_suite()[3], 5);
            let run = RunConfig::new(
                SimDuration::from_millis(2),
                scheme,
                limit.guardbanded_target(),
            );
            let out = Simulation::new(sys, run).run();
            works.push(out.work_for(ComponentKind::Memory).unwrap());
        }
        // The stack runs at its own fixed voltage: identical service under
        // any control scheme.
        assert_eq!(works[0], works[1]);
        assert!(works[0] > 0.0);
    }

    #[test]
    fn memory_power_is_accounted_in_the_package() {
        let limit = PowerLimit::package_pin();
        let with = Simulation::new(
            SystemConfig::paper_system_with_memory(combo_suite()[6], 5),
            RunConfig::new(
                SimDuration::from_millis(2),
                ControlScheme::fixed_baseline(),
                limit.guardbanded_target(),
            ),
        )
        .run();
        let without = Simulation::new(
            SystemConfig::paper_system(combo_suite()[6], 5),
            RunConfig::new(
                SimDuration::from_millis(2),
                ControlScheme::fixed_baseline(),
                limit.guardbanded_target(),
            ),
        )
        .run();
        let delta = with.avg_power.value() - without.avg_power.value();
        // Static 3 W + ~0.5 traffic × 6 W ≈ 6 W.
        assert!((3.0..=9.5).contains(&delta), "memory adds {delta} W");
    }
}
