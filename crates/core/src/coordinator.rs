//! The central simulation controller (§4.1).
//!
//! "The central simulation controller serves two purposes: modeling the
//! global controller and managing the overall simulation state between the
//! various connected simulators." [`Simulation`] is that controller: it owns
//! the global PID loop, the global VR, the sensing circuitry and the
//! metrics, and advances the domains one *control quantum* at a time.
//!
//! Time is organized in quanta because the global voltage schedule for a
//! quantum is fully determined at its boundary (the VR slews toward a fixed
//! setpoint), so domains are independent inside a quantum. The run loop is
//! generic over a `DomainExecutor`; the serial executor here and the
//! worker-pool executor in [`crate::parallel`] share [`Domain::run_quantum`]
//! and produce bit-identical results (per-domain powers are merged in domain
//! order in both).

use std::sync::Arc;

use hcapp_faults::{CtlFault, FaultInjector, FaultPlan};
use hcapp_pdn::{LinkFault, PowerSensor, SensorFault, VoltageRegulator};
use hcapp_sim_core::series::TimeSeries;
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_sim_core::window::WindowedMaxTracker;
use hcapp_telemetry::{Profiler, SharedTracer, TraceEvent};

use crate::controller::global::GlobalController;
use crate::health::{DegradedConfig, EmergencyThrottle, HealthState, SensorWatchdog};
use crate::kernel::{BatchArena, DomainLanes};
use crate::outcome::{ResilienceCounters, RunOutcome};
use crate::scheme::ControlScheme;
use crate::software::{
    ComponentKind, DomainProgress, DynamicBacklogPolicy, NoPolicy, SoftwarePolicy,
    StaticPriorityPolicy,
};
use crate::system::{Domain, SystemConfig};

/// Which software policy a run uses (§5.3 / §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftwareConfig {
    /// Hardware-only HCAPP.
    None,
    /// §5.3's static priority: prioritize one component by de-prioritizing
    /// the others by 10%.
    StaticPriority(ComponentKind),
    /// §6's future-work dynamic policy.
    DynamicBacklog,
}

impl SoftwareConfig {
    fn build(&self) -> Box<dyn SoftwarePolicy> {
        match self {
            SoftwareConfig::None => Box::new(NoPolicy),
            SoftwareConfig::StaticPriority(kind) => Box::new(StaticPriorityPolicy::paper(*kind)),
            SoftwareConfig::DynamicBacklog => Box::<DynamicBacklogPolicy>::default(),
        }
    }
}

/// Everything the coordinator tells one domain for one quantum: the
/// software priority it should adopt, the degradation throttle on its
/// voltage, and any faults active on its command/broadcast paths. A clean
/// run uses [`QuantumCtl::clean`] — unit throttle (bitwise `1.0`, so the
/// multiply is an identity) and no faults — which keeps fault-free runs
/// byte-identical to the pre-fault-injection coordinator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantumCtl {
    /// Software priority to write to the domain's priority register.
    pub priority: f64,
    /// Voltage scale imposed by the degradation layer (domain-health hold ×
    /// emergency throttle); exactly `1.0` when the domain is trusted.
    pub throttle: f64,
    /// Fault on the global-voltage broadcast to this domain this quantum.
    pub link_fault: Option<LinkFault>,
    /// Fault on the domain's own controllers this quantum.
    pub ctl_fault: Option<CtlFault>,
}

impl QuantumCtl {
    /// A fault-free command carrying only a priority.
    pub fn clean(priority: f64) -> Self {
        QuantumCtl {
            priority,
            throttle: 1.0,
            link_fault: None,
            ctl_fault: None,
        }
    }
}

/// Per-run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Control scheme.
    pub scheme: ControlScheme,
    /// The global controller's power target (`P_SPEC`), normally
    /// [`crate::limits::PowerLimit::guardbanded_target`].
    pub power_target: Watt,
    /// Scheduled mid-run target changes, `(when, new target)` — §5.2 notes
    /// the limit "could be changed dynamically during a run without needing
    /// costly PID analysis"; this is that knob. Must be sorted by time.
    pub retargets: Vec<(SimTime, Watt)>,
    /// Limit windows to track maxima over (default: 20 µs, 1 ms, 10 ms).
    pub track_windows: Vec<SimDuration>,
    /// Record the package power trace.
    pub record_trace: bool,
    /// Record the global voltage trace (same sample interval).
    pub record_voltage_trace: bool,
    /// Trace sample interval (default 1 µs, as plotted in Figure 1).
    pub trace_interval: SimDuration,
    /// Software policy.
    pub software: SoftwareConfig,
    /// Structured-telemetry sink. `None` (the default) keeps the run loop on
    /// its zero-cost path: the hook's `enabled()` is read once per run, and
    /// no event is ever constructed when it is absent or disabled. Events
    /// are buffered per quantum and recorded with one lock acquisition, in
    /// an order independent of the executor (serial == parallel).
    pub tracer: Option<SharedTracer>,
    /// Wall-clock phase profiler. Strictly observational: its readings never
    /// feed back into simulated time or control decisions (see simlint L3),
    /// so attaching one cannot perturb a run's results.
    pub profiler: Option<Arc<Profiler>>,
    /// Deterministic fault plan. `None` (the default) keeps the run loop on
    /// its exact pre-fault code path — no injector is built, no watchdog
    /// runs, and results are byte-identical to a build without this field.
    pub faults: Option<FaultPlan>,
    /// Degradation tuning, consulted only when `faults` is set.
    pub degraded: DegradedConfig,
    /// Upper bound on how many control quanta the coordinator ships to the
    /// executor per dispatch (default [`BATCH_QUANTA`]). Batching only
    /// engages when there is no per-quantum feedback into the coordinator —
    /// see [`BATCH_QUANTA`] — so this knob trades executor round trips
    /// against working-set size and never changes results (pinned by the
    /// determinism tests). `1` forces per-quantum dispatch, which the
    /// scaling bench uses as its comparison point.
    pub batch_quanta: usize,
}

impl RunConfig {
    /// A standard evaluation run of `duration` under `scheme` targeting
    /// `power_target`.
    pub fn new(duration: SimDuration, scheme: ControlScheme, power_target: Watt) -> Self {
        RunConfig {
            duration,
            scheme,
            power_target,
            retargets: Vec::new(),
            track_windows: vec![
                SimDuration::from_micros(20),
                SimDuration::from_millis(1),
                SimDuration::from_millis(10),
            ],
            record_trace: false,
            record_voltage_trace: false,
            trace_interval: SimDuration::from_micros(1),
            software: SoftwareConfig::None,
            tracer: None,
            profiler: None,
            faults: None,
            degraded: DegradedConfig::default(),
            batch_quanta: BATCH_QUANTA,
        }
    }

    /// Override the executor batch bound (builder style). `1` forces
    /// per-quantum dispatch; larger values only take effect on runs with no
    /// per-quantum feedback (see [`BATCH_QUANTA`]).
    pub fn with_batch_quanta(mut self, batch_quanta: usize) -> Self {
        self.batch_quanta = batch_quanta.max(1);
        self
    }

    /// Enable power-trace recording (builder style).
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Enable global-voltage-trace recording (builder style).
    pub fn with_voltage_trace(mut self) -> Self {
        self.record_voltage_trace = true;
        self
    }

    /// Select a software policy (builder style).
    pub fn with_software(mut self, sw: SoftwareConfig) -> Self {
        self.software = sw;
        self
    }

    /// Attach a structured-telemetry sink (builder style). Keep a clone of
    /// the handle to read the trace back after the run.
    pub fn with_tracer(mut self, tracer: SharedTracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attach a wall-clock phase profiler (builder style).
    pub fn with_profiler(mut self, profiler: Arc<Profiler>) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Attach a deterministic fault plan (builder style). This also arms the
    /// degradation layer — watchdogs, holds and the emergency throttle.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Override the degradation tuning (builder style).
    pub fn with_degraded(mut self, degraded: DegradedConfig) -> Self {
        self.degraded = degraded;
        self
    }

    /// Schedule a mid-run power-target change (builder style; keep calls in
    /// chronological order).
    pub fn with_retarget(mut self, at: SimTime, target: Watt) -> Self {
        if let Some(&(prev, _)) = self.retargets.last() {
            assert!(prev <= at, "retargets must be chronological");
        }
        self.retargets.push((at, target));
        self
    }

    /// Validate invariants against a system configuration.
    ///
    /// # Panics
    /// Panics if durations don't divide by the system tick.
    pub fn validate(&self, sys: &SystemConfig) {
        assert!(!self.duration.is_zero(), "zero run duration");
        assert!(self.power_target.value() > 0.0, "non-positive target");
        let tick = sys.tick.as_nanos();
        assert!(
            self.duration.as_nanos().is_multiple_of(tick),
            "duration must be a multiple of the tick"
        );
        for w in &self.track_windows {
            assert!(
                w.as_nanos() % tick == 0,
                "tracked window {w} must be a multiple of the tick"
            );
        }
        if let Some(p) = self.scheme.control_period() {
            assert!(
                p.as_nanos() % tick == 0,
                "control period must be a multiple of the tick"
            );
        }
        assert!(self.batch_quanta >= 1, "zero batch bound");
        self.degraded.validate();
        if let Some(plan) = &self.faults {
            plan.validate();
        }
    }
}

/// The fallback quantum for the uncontrolled fixed-voltage baseline.
pub(crate) const FIXED_QUANTUM: SimDuration = SimDuration::from_micros(100);

/// Default number of control quanta the coordinator ships to an executor in
/// one batch. Batching only happens when there is provably no per-quantum
/// feedback into the coordinator — the fixed-voltage baseline with no fault
/// plan and no tracer attached. The dynamic schemes *cannot* batch across
/// quanta without changing results: the global PID reads the previous
/// quantum's sensed power at every boundary (§4.1), so each quantum's
/// voltage schedule depends on the one before it. For those, the win comes
/// from the pooled executor's per-worker reply merging instead (see
/// [`crate::parallel`]). The value therefore trades executor round trips
/// against working-set size, never correctness.
pub const BATCH_QUANTA: usize = 32;

/// One control quantum's worth of executor input, referencing slices of the
/// batch-wide `v_sched`/`power_acc` buffers via `offset..offset + n`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuantumSpec {
    /// Start time of the quantum.
    pub(crate) t0: SimTime,
    /// First tick of this quantum inside the batch buffers.
    pub(crate) offset: usize,
    /// Number of ticks in this quantum.
    pub(crate) n: usize,
    /// Whether local controllers update at this quantum's boundary.
    pub(crate) update_local: bool,
}

/// Abstraction over how the domain set advances through a *batch* of
/// quanta — serial in this module, worker-pool in [`crate::parallel`].
pub(crate) trait DomainExecutor {
    /// Component kind of each domain, in order.
    fn kinds(&self) -> Vec<ComponentKind>;
    /// Nominal work rate of each domain (see [`Domain::nominal_rate`]).
    fn nominal_rates(&self) -> Vec<f64>;
    /// Current cumulative work per domain.
    fn work_done(&mut self) -> Vec<f64>;
    /// Advance all domains through `quanta`, adding per-tick powers into
    /// `power_acc` (indexed by each spec's `offset..offset + n`) in domain
    /// order, so the floating-point sums are bit-identical across
    /// executors. `ctls` carries the per-domain command (priority,
    /// throttle, faults) shared by every quantum of the batch — the
    /// coordinator only batches when the commands are quantum-invariant.
    /// Each domain's heartbeat for the batch's *last* quantum is written
    /// into `heartbeats` at the domain's index (the health watchdogs only
    /// run under a fault plan, where batches are single-quantum). When
    /// `events` is `Some`, the batch is a single quantum and per-domain
    /// trace events are appended *in domain order* regardless of execution
    /// order, so traces are executor-independent too.
    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &mut self,
        quanta: &[QuantumSpec],
        v_sched: &[f64],
        ctls: &[QuantumCtl],
        tick: SimDuration,
        power_acc: &mut [f64],
        heartbeats: &mut [bool],
        events: Option<&mut Vec<TraceEvent>>,
    );

    /// Serialize every domain's checkpoint payload, in domain-index order
    /// (the resume layer stores them as `domain.<i>` sections). Must only
    /// be called at a batch boundary, where no quantum is in flight.
    fn domain_states(&mut self) -> Vec<String>;

    /// Restore payloads produced by [`DomainExecutor::domain_states`]
    /// (same indexing). `None` if any payload is missing, malformed, or
    /// shaped for a different system configuration.
    fn restore_domain_states(&mut self, states: &[&str]) -> Option<()>;
}

/// Serialize one domain with the sim-core state codec.
pub(crate) fn encode_domain_state(d: &Domain) -> String {
    use hcapp_sim_core::state::Snapshot;
    let mut w = hcapp_sim_core::state::StateWriter::new();
    d.save_state(&mut w);
    w.finish()
}

/// Restore one domain from [`encode_domain_state`]'s payload, requiring the
/// payload to be fully consumed.
pub(crate) fn decode_domain_state(d: &mut Domain, payload: &str) -> Option<()> {
    use hcapp_sim_core::state::Snapshot;
    let mut r = hcapp_sim_core::state::StateReader::new(payload);
    d.load_state(&mut r)?;
    r.finished()
}

/// In-process executor over the owned domain list.
pub(crate) struct SerialExecutor {
    pub(crate) domains: Vec<Domain>,
}

impl DomainExecutor for SerialExecutor {
    fn kinds(&self) -> Vec<ComponentKind> {
        self.domains.iter().map(|d| d.kind).collect()
    }

    fn nominal_rates(&self) -> Vec<f64> {
        self.domains.iter().map(|d| d.nominal_rate).collect()
    }

    fn work_done(&mut self) -> Vec<f64> {
        self.domains.iter().map(|d| d.sim.work_done()).collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &mut self,
        quanta: &[QuantumSpec],
        v_sched: &[f64],
        ctls: &[QuantumCtl],
        tick: SimDuration,
        power_acc: &mut [f64],
        heartbeats: &mut [bool],
        mut events: Option<&mut Vec<TraceEvent>>,
    ) {
        // Quantum-major, domain-minor: the same tick order the original
        // per-quantum loop executed, which appends events in domain order
        // within each quantum.
        for q in quanta {
            for (i, (d, c)) in self.domains.iter_mut().zip(ctls).enumerate() {
                heartbeats[i] = d.run_quantum(
                    q.t0,
                    &v_sched[q.offset..q.offset + q.n],
                    q.update_local,
                    c,
                    tick,
                    &mut power_acc[q.offset..q.offset + q.n],
                    events.as_deref_mut(),
                );
            }
        }
    }

    fn domain_states(&mut self) -> Vec<String> {
        self.domains.iter().map(encode_domain_state).collect()
    }

    fn restore_domain_states(&mut self, states: &[&str]) -> Option<()> {
        if states.len() != self.domains.len() {
            return None;
        }
        for (d, s) in self.domains.iter_mut().zip(states) {
            decode_domain_state(d, s)?;
        }
        Some(())
    }
}

/// The central simulation controller.
pub struct Simulation {
    pub(crate) sys: SystemConfig,
    pub(crate) run: RunConfig,
    pub(crate) domains: Vec<Domain>,
    pub(crate) global_ctl: GlobalController,
    pub(crate) vr: VoltageRegulator,
    pub(crate) sensor: PowerSensor,
    pub(crate) policy: Box<dyn SoftwarePolicy>,
}

impl Simulation {
    /// Build a simulation.
    pub fn new(sys: SystemConfig, run: RunConfig) -> Self {
        sys.validate();
        run.validate(&sys);
        let domains: Vec<Domain> = sys
            .domains
            .iter()
            .enumerate()
            .map(|(i, d)| Domain::build(d, &sys, i))
            .collect();
        let gains = sys.pid;
        let v_init = match run.scheme {
            ControlScheme::FixedVoltage(v) => v,
            _ => sys.v_init,
        };
        let vr = VoltageRegulator::raven(
            Volt::new(gains.out_min),
            Volt::new(gains.out_max),
            v_init,
        );
        let sensor = PowerSensor::new(sys.sensor_delay_ticks, sys.sensor_resolution);
        let global_ctl = GlobalController::new(gains, run.power_target);
        let policy = run.software.build();
        Simulation {
            sys,
            run,
            domains,
            global_ctl,
            vr,
            sensor,
            policy,
        }
    }

    /// The domains (for inspection in tests).
    pub fn domains(&self) -> &[Domain] {
        &self.domains
    }

    /// Run to completion with the serial executor.
    pub fn run(self) -> RunOutcome {
        let Simulation {
            sys,
            run,
            domains,
            global_ctl,
            vr,
            sensor,
            policy,
        } = self;
        let executor = SerialExecutor { domains };
        run_loop(sys, run, global_ctl, vr, sensor, policy, executor)
    }
}

/// The quantum-granular run loop shared by the serial and parallel
/// executors.
pub(crate) fn run_loop<E: DomainExecutor>(
    sys: SystemConfig,
    run: RunConfig,
    global_ctl: GlobalController,
    vr: VoltageRegulator,
    sensor: PowerSensor,
    policy: Box<dyn SoftwarePolicy>,
    executor: E,
) -> RunOutcome {
    let mut driver = LoopDriver::new(sys, run, global_ctl, vr, sensor, policy, executor);
    while !driver.is_done() {
        driver.step_batch();
    }
    driver.finish()
}

/// The run loop reified as a stepwise driver, so the checkpoint/resume
/// layer ([`crate::resume`]) can pause a run at any batch boundary.
/// `new` + `step_batch`-until-done + `finish` execute the exact statement
/// sequence the single-function loop used to, so the reification cannot
/// change results — [`run_loop`] is that composition, and every existing
/// determinism test pins it.
pub(crate) struct LoopDriver<E: DomainExecutor> {
    // Configuration and values derived from it once in `new` (rebuilt, not
    // checkpointed: a resumed run re-derives them from the same config).
    sys: SystemConfig,
    run: RunConfig,
    tick: SimDuration,
    tick_s: f64,
    dynamic: bool,
    period: SimDuration,
    quantum_ticks: usize,
    total_ticks: usize,
    trace_ticks: usize,
    kinds: Vec<ComponentKind>,
    nominal_rates: Vec<f64>,
    sw_interval: u64,
    n_domains: usize,
    injector: Option<FaultInjector>,
    degraded: DegradedConfig,
    tracer: Option<SharedTracer>,
    tracing: bool,
    profiler: Option<Arc<Profiler>>,
    v_floor: Volt,
    v_ceil: Volt,
    max_batch: usize,
    // The controlled components.
    global_ctl: GlobalController,
    vr: VoltageRegulator,
    sensor: PowerSensor,
    policy: Box<dyn SoftwarePolicy>,
    executor: E,
    // Loop state proper (checkpointed by `save_sections`).
    trackers: Vec<WindowedMaxTracker>,
    trace: Option<TimeSeries>,
    voltage_trace: Option<TimeSeries>,
    trace_sum: f64,
    vtrace_sum: f64,
    trace_count: usize,
    energy: f64,
    voltage_sum: f64,
    /// Per-domain state lanes (the struct-of-arrays half of the kernel
    /// layout — see [`crate::kernel`]).
    lanes: DomainLanes,
    last_policy_tick: usize,
    sensor_dog: SensorWatchdog,
    emergency: EmergencyThrottle,
    held_reading: Watt,
    sensor_fault_active: bool,
    slew_fault_active: bool,
    resilience: ResilienceCounters,
    ev_buf: Vec<TraceEvent>,
    done: usize,
    quantum_index: u64,
    peak_hold: f64,
    retarget_cursor: usize,
    prev_t0: Option<SimTime>,
    /// Batch-scoped scratch buffers, allocated once and reused per batch
    /// (never live across a boundary; see [`crate::kernel`]).
    arena: BatchArena,
}

impl<E: DomainExecutor> LoopDriver<E> {
    /// Everything the original loop did before its first iteration.
    pub(crate) fn new(
        sys: SystemConfig,
        run: RunConfig,
        global_ctl: GlobalController,
        mut vr: VoltageRegulator,
        sensor: PowerSensor,
        policy: Box<dyn SoftwarePolicy>,
        mut executor: E,
    ) -> Self {
        let tick = sys.tick;
        let tick_s = tick.as_secs_f64();
        let dynamic = run.scheme.control_period().is_some();
        let period = run.scheme.control_period().unwrap_or(FIXED_QUANTUM);
        let quantum_ticks = period.ticks(tick) as usize;
        let total_ticks = run.duration.ticks(tick) as usize;

        let trackers: Vec<WindowedMaxTracker> = run
            .track_windows
            .iter()
            .map(|w| WindowedMaxTracker::new(w.ticks(tick) as usize))
            .collect();

        let trace = run.record_trace.then(|| {
            TimeSeries::with_capacity(
                run.trace_interval,
                (run.duration / run.trace_interval) as usize + 1,
            )
        });
        let voltage_trace = run.record_voltage_trace.then(|| {
            TimeSeries::with_capacity(
                run.trace_interval,
                (run.duration / run.trace_interval) as usize + 1,
            )
        });
        let trace_ticks = run.trace_interval.ticks(tick) as usize;

        // Software-policy bookkeeping.
        let kinds = executor.kinds();
        let nominal_rates = executor.nominal_rates();
        let sw_interval = policy.interval_periods().max(1);
        let work_snapshot = executor.work_done();
        let progress: Vec<DomainProgress> = kinds
            .iter()
            .map(|&kind| DomainProgress {
                kind,
                relative_rate: 1.0,
            })
            .collect();

        // Fault injection + graceful degradation. Without a plan the
        // injector is never built and every guard below is a single branch
        // on `None`; the clean path multiplies by bitwise-1.0 throttles
        // only, so fault-free runs stay byte-identical to a coordinator
        // without this layer.
        let n_domains = kinds.len();
        let injector = run
            .faults
            .as_ref()
            .map(|p| FaultInjector::new(p.clone(), period));
        let degraded = run.degraded;
        let lanes = DomainLanes::new(work_snapshot, progress);

        // Telemetry: resolve the hooks once per run. Without a tracer (or
        // with a disabled one, e.g. NullTracer) `tracing` stays false and no
        // event is ever constructed on the quantum path below.
        let tracer = run.tracer.clone();
        let tracing = tracer
            .as_ref()
            .map(|t| {
                t.lock()
                    .expect("invariant: tracer mutex never poisoned")
                    .enabled()
            })
            .unwrap_or(false);
        let profiler = run.profiler.clone();
        let mut ev_buf: Vec<TraceEvent> = Vec::new();
        if tracing {
            // Make every trace self-contained: the initial target is emitted
            // as a retarget at t = 0, so a reader sees all target changes.
            ev_buf.push(TraceEvent::Retarget {
                t: SimTime::ZERO,
                target: run.power_target,
            });
        }

        // Fixed baseline: pin the VR target once.
        if let ControlScheme::FixedVoltage(v) = run.scheme {
            vr.set_target(SimTime::ZERO, v);
        }

        let (v_floor, v_ceil) = (Volt::new(sys.pid.out_min), Volt::new(sys.pid.out_max));

        // Batch sizing. Multi-quantum dispatch is only sound when nothing
        // below consumes per-quantum feedback: no dynamic control (the
        // global PID reads the previous quantum's sensed power at every
        // boundary), no fault plan (injection decisions and the watchdogs
        // act per quantum) and no tracer (events flush per quantum).
        // Otherwise every batch is a single quantum, which reproduces the
        // pre-batching loop op for op.
        let max_batch = if dynamic || injector.is_some() || tracing {
            1
        } else {
            run.batch_quanta.max(1)
        };
        let arena = BatchArena::new(quantum_ticks, max_batch);

        LoopDriver {
            sys,
            run,
            tick,
            tick_s,
            dynamic,
            period,
            quantum_ticks,
            total_ticks,
            trace_ticks,
            kinds,
            nominal_rates,
            sw_interval,
            n_domains,
            injector,
            degraded,
            tracer,
            tracing,
            profiler,
            v_floor,
            v_ceil,
            max_batch,
            global_ctl,
            vr,
            sensor,
            policy,
            executor,
            trackers,
            trace,
            voltage_trace,
            trace_sum: 0.0,
            vtrace_sum: 0.0,
            trace_count: 0,
            energy: 0.0,
            voltage_sum: 0.0,
            lanes,
            last_policy_tick: 0,
            sensor_dog: SensorWatchdog::new(),
            emergency: EmergencyThrottle::new(),
            held_reading: Watt::ZERO,
            sensor_fault_active: false,
            slew_fault_active: false,
            resilience: ResilienceCounters::default(),
            ev_buf,
            done: 0,
            quantum_index: 0,
            peak_hold: 0.0,
            retarget_cursor: 0,
            prev_t0: None,
            arena,
        }
    }

    /// True once every tick of the run has been simulated.
    pub(crate) fn is_done(&self) -> bool {
        self.done >= self.total_ticks
    }

    /// Control quanta completed so far.
    pub(crate) fn quanta_completed(&self) -> u64 {
        self.quantum_index
    }

    /// One iteration of the original `while done < total_ticks` loop:
    /// assemble a batch of quanta, dispatch it to the executor, fold the
    /// results into the package-level accumulators. After it returns the
    /// driver sits at a batch boundary — the only place a checkpoint is
    /// coherent.
    pub(crate) fn step_batch(&mut self) {
        // Assemble up to `max_batch` quanta. The per-quantum head (fault
        // injection, global control, VR scheduling, command assembly) runs
        // once per quantum exactly as before; only the executor dispatch
        // below is amortized across the batch.
        self.arena.batch.clear();
        let mut batch_ticks = 0usize;
        while self.arena.batch.len() < self.max_batch && self.done + batch_ticks < self.total_ticks {
            let n = self.quantum_ticks.min(self.total_ticks - self.done - batch_ticks);
            let t0 = SimTime::from_nanos((self.done + batch_ticks) as u64 * self.tick.as_nanos());
            crate::invariants::check_time_monotonic("run_loop quantum", self.prev_t0, t0);
            self.prev_t0 = Some(t0);

            // VR-side faults apply at the quantum boundary, before the
            // control step, so the controller reacts to a post-droop world.
            if let Some(inj) = self.injector.as_ref() {
                if let Some(depth) = inj.vr_droop(t0) {
                    self.vr.droop(depth);
                    self.resilience.faults_injected += 1;
                    if self.tracing {
                        self.ev_buf.push(TraceEvent::FaultInjected {
                            t: t0,
                            point: "vr_droop",
                            domain: None,
                            magnitude: depth,
                        });
                    }
                }
                let derate = inj.vr_slew_derate(t0);
                self.vr.set_slew_derate(derate.unwrap_or(1.0));
                if let Some(factor) = derate {
                    if !self.slew_fault_active {
                        self.resilience.faults_injected += 1;
                        if self.tracing {
                            self.ev_buf.push(TraceEvent::FaultInjected {
                                t: t0,
                                point: "vr_slew_derate",
                                domain: None,
                                magnitude: factor,
                            });
                        }
                    }
                }
                self.slew_fault_active = derate.is_some();
            }

            if self.dynamic {
                let _span = self.profiler.as_deref().map(|p| p.span("control"));
                // Apply any scheduled power-target changes that have
                // matured.
                while self.retarget_cursor < self.run.retargets.len() {
                    // simlint: allow(L6): cursor bounds-checked by the loop condition one line up
                    let (at, target) = self.run.retargets[self.retarget_cursor];
                    if at <= t0 {
                        self.global_ctl.set_target(target);
                        if self.tracing {
                            self.ev_buf.push(TraceEvent::Retarget { t: t0, target });
                        }
                        self.retarget_cursor += 1;
                    } else {
                        break;
                    }
                }
                // Software policy at its (much slower) interval.
                if self.quantum_index.is_multiple_of(self.sw_interval) {
                    let work_now = self.executor.work_done();
                    let elapsed_ticks = (self.done - self.last_policy_tick).max(1);
                    let elapsed_ns = elapsed_ticks as f64 * self.tick.as_nanos() as f64;
                    for (i, kind) in self.kinds.iter().enumerate() {
                        let delta = work_now[i] - self.lanes.work_snapshot[i];
                        self.lanes.progress[i] = DomainProgress {
                            kind: *kind,
                            relative_rate: if self.nominal_rates[i] > 0.0 {
                                delta / (elapsed_ns * self.nominal_rates[i])
                            } else {
                                1.0
                            },
                        };
                    }
                    self.lanes.work_snapshot = work_now;
                    self.policy.update(&self.lanes.progress, &mut self.lanes.priorities);
                    self.last_policy_tick = self.done;
                }
                // Global control action (Eq. 1 + Eq. 2). The controller
                // reads the sensing circuitry's *peak-hold* register — the
                // maximum power observed since its last action. For HCAPP's
                // 1 µs period this is essentially the instantaneous power;
                // for the slower schemes it is what a capping firmware
                // actually consults, and it is what makes them conservative
                // (they see every spike they were too slow to prevent).
                let sensed = self.peak_hold.max(self.sensor.read().value());
                self.peak_hold = 0.0;
                let mut p_input = Watt::new(sensed);
                let mut clamped = false;
                if let Some(inj) = self.injector.as_ref() {
                    // Pass the true reading through any active sensor fault
                    // — the controller only ever sees the (possibly lying)
                    // result, never the injector's oracle.
                    let fault = inj.sensor_fault(t0);
                    let reading = match fault {
                        Some(f) => {
                            PowerSensor::faulted_reading(Watt::new(sensed), f, self.held_reading)
                        }
                        None => {
                            self.held_reading = Watt::new(sensed);
                            Watt::new(sensed)
                        }
                    };
                    if let Some(f) = fault {
                        if !self.sensor_fault_active {
                            self.resilience.faults_injected += 1;
                            if self.tracing {
                                let (point, magnitude) = match f {
                                    SensorFault::Noise { factor } => ("sensor_noise", factor),
                                    SensorFault::StuckAt => ("sensor_stuck", f64::NAN),
                                    SensorFault::Dropout => ("sensor_dropout", f64::NAN),
                                };
                                self.ev_buf.push(TraceEvent::FaultInjected {
                                    t: t0,
                                    point,
                                    domain: None,
                                    magnitude,
                                });
                            }
                        }
                    }
                    self.sensor_fault_active = fault.is_some();
                    // Watchdog on the observable symptom: a reading that
                    // stays frozen while the rail moves away from it.
                    if let Some((from, to)) =
                        self.sensor_dog
                            .observe(reading.value(), self.vr.output().value(), &self.degraded)
                    {
                        self.resilience.health_transitions += 1;
                        if self.tracing {
                            self.ev_buf.push(TraceEvent::HealthTransition {
                                t: t0,
                                subject: "sensor",
                                domain: None,
                                from: from.name(),
                                to: to.name(),
                            });
                        }
                    }
                    // A faulted sensor is replaced by the worst-case power
                    // at the present rail voltage: regulation errs low, not
                    // blind.
                    p_input = if self.sensor_dog.state() == HealthState::Faulted {
                        self.sys.peak_power_at(self.vr.output())
                    } else {
                        reading
                    };
                    // Trip strictly above P_SPEC × margin: settled
                    // regulation hovers a hair over the setpoint by design
                    // (see the near-miss counter), and must not engage the
                    // clamp.
                    let over = p_input.value()
                        > self.global_ctl.target().value() * self.degraded.trip_margin;
                    if let Some(engaged) = self.emergency.observe(over, &self.degraded) {
                        if engaged {
                            self.resilience.emergency_engagements += 1;
                        }
                        if self.tracing {
                            self.ev_buf.push(TraceEvent::EmergencyThrottle {
                                t: t0,
                                engaged,
                                estimate: p_input,
                                target: self.global_ctl.target(),
                                scale: self.emergency.scale(),
                            });
                        }
                    }
                    clamped = self.emergency.engaged();
                }
                if clamped {
                    // Emergency: rail pinned to its floor, PID frozen (its
                    // state resumes unchanged on release, so the incident
                    // does not wind up the integrator).
                    self.resilience.emergency_quanta += 1;
                    self.vr.set_target(t0, self.v_floor);
                } else {
                    let v_next = self.global_ctl.update(p_input, self.period);
                    self.vr.set_target(t0, v_next);
                    if self.tracing {
                        let terms = self.global_ctl.pid().last_terms();
                        self.ev_buf.push(TraceEvent::GlobalPidStep {
                            t: t0,
                            p_now: p_input,
                            setpoint: self.global_ctl.target(),
                            v_err: terms.error,
                            p_term: terms.p,
                            i_term: terms.i,
                            d_term: terms.d,
                            v_next,
                        });
                    }
                }
            }

            // Precompute the global voltage schedule for this quantum, into
            // this quantum's slice of the batch-wide buffer.
            {
                let _span = self.profiler.as_deref().map(|p| p.span("vr-schedule"));
                let sched = &mut self.arena.v_sched[batch_ticks..batch_ticks + n];
                self.vr.schedule_into(t0, self.tick, sched);
                for &v in sched.iter() {
                    crate::invariants::check_voltage_in_range(
                        "run_loop voltage schedule",
                        Volt::new(v),
                        self.v_floor,
                        self.v_ceil,
                    );
                }
            }
            if self.tracing {
                self.ev_buf.push(TraceEvent::VrSlew {
                    t: t0,
                    setpoint: self.vr.target(),
                    start: Volt::new(self.arena.v_sched[batch_ticks]),
                    end: Volt::new(self.arena.v_sched[batch_ticks + n - 1]),
                });
            }

            // Assemble this quantum's per-domain commands. All fault
            // decisions are made here, on the coordinator thread, from pure
            // functions of (seed, point, domain index, quantum index) — the
            // executors only ever see the resulting `QuantumCtl`s, which is
            // why serial and pooled runs are byte-identical under any plan.
            if let Some(inj) = self.injector.as_ref() {
                let em_scale = self.emergency.scale();
                for i in 0..self.n_domains {
                    let link = inj.link_fault(t0, i);
                    let ctlf = inj.ctl_fault(t0, i);
                    if let Some(f) = link {
                        if !self.lanes.link_fault_active[i] {
                            self.resilience.faults_injected += 1;
                            if self.tracing {
                                let (point, magnitude) = match f {
                                    LinkFault::Delay { ticks } => {
                                        ("link_delay", f64::from(ticks))
                                    }
                                    LinkFault::Loss => ("link_loss", f64::NAN),
                                };
                                self.ev_buf.push(TraceEvent::FaultInjected {
                                    t: t0,
                                    point,
                                    domain: Some(i as u32),
                                    magnitude,
                                });
                            }
                        }
                    }
                    self.lanes.link_fault_active[i] = link.is_some();
                    if let Some(f) = ctlf {
                        if !self.lanes.ctl_fault_active[i] {
                            self.resilience.faults_injected += 1;
                            if self.tracing {
                                let point = match f {
                                    CtlFault::DomainStuck => "ctl_stuck",
                                    CtlFault::LocalSilent => "ctl_silent",
                                };
                                self.ev_buf.push(TraceEvent::FaultInjected {
                                    t: t0,
                                    point,
                                    domain: Some(i as u32),
                                    magnitude: f64::NAN,
                                });
                            }
                        }
                    }
                    self.lanes.ctl_fault_active[i] = ctlf.is_some();
                    self.lanes.ctls[i] = QuantumCtl {
                        priority: self.lanes.priorities[i],
                        throttle: self.lanes.dom_health[i].throttle() * em_scale,
                        link_fault: link,
                        ctl_fault: ctlf,
                    };
                }
            } else {
                for (c, &p) in self.lanes.ctls.iter_mut().zip(&self.lanes.priorities) {
                    c.priority = p;
                }
            }

            self.arena.batch.push(QuantumSpec {
                t0,
                offset: batch_ticks,
                n,
                update_local: self.dynamic,
            });
            batch_ticks += n;
            self.quantum_index += 1;
        }

        // Advance every domain through the batch.
        self.arena.power_acc[..batch_ticks].fill(0.0);
        {
            let _span = self.profiler.as_deref().map(|p| p.span("domains"));
            self.executor.run_batch(
                &self.arena.batch,
                &self.arena.v_sched[..batch_ticks],
                &self.lanes.ctls,
                self.tick,
                &mut self.arena.power_acc[..batch_ticks],
                &mut self.lanes.heartbeats,
                self.tracing.then_some(&mut self.ev_buf),
            );
        }
        // Feed the heartbeats back into the per-domain watchdogs — appended
        // after the executor's per-domain events, still in domain order. A
        // fault plan forces single-quantum batches, so the batch's last (and
        // only) quantum is the one the heartbeats belong to.
        if self.injector.is_some() {
            let t_beat = self
                .arena
                .batch
                .last()
                .expect("invariant: the run loop never dispatches an empty batch")
                .t0;
            for (i, dh) in self.lanes.dom_health.iter_mut().enumerate() {
                if let Some((from, to)) = dh.observe(self.lanes.heartbeats[i], &self.degraded) {
                    self.resilience.health_transitions += 1;
                    if self.tracing {
                        self.ev_buf.push(TraceEvent::HealthTransition {
                            t: t_beat,
                            subject: "domain",
                            domain: Some(i as u32),
                            from: from.name(),
                            to: to.name(),
                        });
                    }
                }
            }
        }
        for &p in &self.arena.power_acc[..batch_ticks] {
            crate::invariants::check_power_sane("run_loop package power", Watt::new(p));
        }
        // Flush the quantum's events with a single lock acquisition. The
        // buffer holds global events first, then per-domain events in
        // domain order — identical for the serial and parallel executors.
        if self.tracing {
            if let Some(t) = self.tracer.as_ref() {
                t.lock()
                    .expect("invariant: tracer mutex never poisoned")
                    .record_all(&mut self.ev_buf);
            }
        }

        // Aggregate package-level signals, tick-ordered across the batch.
        let _agg_span = self.profiler.as_deref().map(|p| p.span("aggregate"));
        for i in 0..batch_ticks {
            let p = self.arena.power_acc[i];
            let seen = self.sensor.sample(Watt::new(p)).value();
            if seen > self.peak_hold {
                self.peak_hold = seen;
            }
            for tr in &mut self.trackers {
                tr.push(p);
            }
            self.energy += p * self.tick_s;
            self.voltage_sum += self.arena.v_sched[i];
            if self.trace.is_some() || self.voltage_trace.is_some() {
                self.trace_sum += p;
                self.vtrace_sum += self.arena.v_sched[i];
                self.trace_count += 1;
                if self.trace_count == self.trace_ticks {
                    if let Some(series) = self.trace.as_mut() {
                        series.push(self.trace_sum / self.trace_ticks as f64);
                    }
                    if let Some(series) = self.voltage_trace.as_mut() {
                        series.push(self.vtrace_sum / self.trace_ticks as f64);
                    }
                    self.trace_sum = 0.0;
                    self.vtrace_sum = 0.0;
                    self.trace_count = 0;
                }
            }
        }

        self.done += batch_ticks;
    }

    /// Everything the original loop did after its last iteration.
    pub(crate) fn finish(mut self) -> RunOutcome {
        let duration_s = self.run.duration.as_secs_f64();
        let final_work = self.executor.work_done();
        RunOutcome {
            scheme: self.run.scheme,
            duration: self.run.duration,
            avg_power: Watt::new(self.energy / duration_s),
            energy_j: self.energy,
            windowed_max: self
                .run
                .track_windows
                .iter()
                .zip(&self.trackers)
                .map(|(w, tr)| (*w, Watt::new(tr.max().unwrap_or(0.0))))
                .collect(),
            work: self.kinds.into_iter().zip(final_work).collect(),
            mean_global_voltage: self.voltage_sum / self.total_ticks as f64,
            trace: self.trace,
            voltage_trace: self.voltage_trace,
            resilience: self.resilience,
        }
    }
}

impl<E: DomainExecutor> LoopDriver<E> {
    /// Collect every checkpoint section at a batch boundary, in a fixed
    /// order: the coordinator's own loop state, the three package-level
    /// components, then one section per domain. Panics if called
    /// mid-quantum (unflushed trace events) — the resume driver only calls
    /// it right after `step_batch`.
    pub(crate) fn save_sections(&mut self) -> Vec<(String, String)> {
        use hcapp_sim_core::state::{Snapshot, StateWriter};
        assert!(
            self.ev_buf.is_empty(),
            "checkpoint mid-quantum: unflushed trace events"
        );
        let mut sections = Vec::with_capacity(4 + self.n_domains);
        let mut w = StateWriter::new();
        self.save_loop(&mut w);
        sections.push(("loop".to_string(), w.finish()));
        let mut w = StateWriter::new();
        self.global_ctl.save_state(&mut w);
        sections.push(("pid".to_string(), w.finish()));
        let mut w = StateWriter::new();
        self.vr.save_state(&mut w);
        sections.push(("vr".to_string(), w.finish()));
        let mut w = StateWriter::new();
        self.sensor.save_state(&mut w);
        sections.push(("sensor".to_string(), w.finish()));
        for (i, s) in self.executor.domain_states().into_iter().enumerate() {
            sections.push((format!("domain.{i}"), s));
        }
        sections
    }

    /// Restore a freshly-built driver from [`LoopDriver::save_sections`]
    /// payloads (`get` maps a section name to its payload). `None` on any
    /// missing/malformed section or configuration mismatch — the caller
    /// falls back to a fresh run.
    pub(crate) fn restore_sections<'a>(
        &mut self,
        get: impl Fn(&str) -> Option<&'a str>,
    ) -> Option<()> {
        use hcapp_sim_core::state::{Snapshot, StateReader};
        let mut r = StateReader::new(get("loop")?);
        self.load_loop(&mut r)?;
        r.finished()?;
        let mut r = StateReader::new(get("pid")?);
        self.global_ctl.load_state(&mut r)?;
        r.finished()?;
        let mut r = StateReader::new(get("vr")?);
        self.vr.load_state(&mut r)?;
        r.finished()?;
        let mut r = StateReader::new(get("sensor")?);
        self.sensor.load_state(&mut r)?;
        r.finished()?;
        let states: Vec<&str> = (0..self.n_domains)
            .map(|i| get(&format!("domain.{i}")))
            .collect::<Option<_>>()?;
        self.executor.restore_domain_states(&states)?;
        // The original process already flushed its boundary events
        // (including the t = 0 retarget preamble `new` re-pushed); a
        // resumed run must not emit them again.
        self.ev_buf.clear();
        Some(())
    }

    /// The coordinator-side mutable state, one tagged line per field.
    fn save_loop(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        use hcapp_sim_core::state::Snapshot;
        w.usize("loop.done", self.done);
        w.u64("loop.quantum_index", self.quantum_index);
        w.usize("loop.retarget_cursor", self.retarget_cursor);
        w.opt_u64("loop.prev_t0", self.prev_t0.map(|t| t.as_nanos()));
        w.f64("loop.peak_hold", self.peak_hold);
        w.f64("loop.energy", self.energy);
        w.f64("loop.voltage_sum", self.voltage_sum);
        w.f64("loop.trace_sum", self.trace_sum);
        w.f64("loop.vtrace_sum", self.vtrace_sum);
        w.usize("loop.trace_count", self.trace_count);
        for tr in &self.trackers {
            tr.save_state(w);
        }
        w.bool("loop.trace", self.trace.is_some());
        if let Some(series) = self.trace.as_ref() {
            series.save_state(w);
        }
        w.bool("loop.voltage_trace", self.voltage_trace.is_some());
        if let Some(series) = self.voltage_trace.as_ref() {
            series.save_state(w);
        }
        w.f64_slice("loop.work_snapshot", &self.lanes.work_snapshot);
        let rates: Vec<f64> = self.lanes.progress.iter().map(|p| p.relative_rate).collect();
        w.f64_slice("loop.progress", &rates);
        w.f64_slice("loop.priorities", &self.lanes.priorities);
        w.usize("loop.last_policy_tick", self.last_policy_tick);
        for dh in &self.lanes.dom_health {
            dh.save_state(w);
        }
        self.sensor_dog.save_state(w);
        self.emergency.save_state(w);
        w.f64("loop.held_reading", self.held_reading.value());
        w.bool("loop.sensor_fault_active", self.sensor_fault_active);
        w.bool("loop.slew_fault_active", self.slew_fault_active);
        w.u64_slice("loop.link_fault_active", &bools_to_u64(&self.lanes.link_fault_active));
        w.u64_slice("loop.ctl_fault_active", &bools_to_u64(&self.lanes.ctl_fault_active));
        w.u64("loop.res.faults_injected", self.resilience.faults_injected);
        w.u64("loop.res.health_transitions", self.resilience.health_transitions);
        w.u64(
            "loop.res.emergency_engagements",
            self.resilience.emergency_engagements,
        );
        w.u64("loop.res.emergency_quanta", self.resilience.emergency_quanta);
    }

    /// Inverse of [`LoopDriver::save_loop`], with shape checks against the
    /// (rebuilt) configuration. Not restored because they are rebuilt or
    /// batch-scoped: `ctls`/`heartbeats` (fully reassembled before every
    /// use), `ev_buf` (flushed at every boundary), and the
    /// `v_sched`/`power_acc`/`batch` scratch buffers.
    fn load_loop(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        use hcapp_sim_core::state::Snapshot;
        let done = r.usize("loop.done")?;
        if done > self.total_ticks {
            return None;
        }
        self.done = done;
        self.quantum_index = r.u64("loop.quantum_index")?;
        let cursor = r.usize("loop.retarget_cursor")?;
        if cursor > self.run.retargets.len() {
            return None;
        }
        self.retarget_cursor = cursor;
        self.prev_t0 = r.opt_u64("loop.prev_t0")?.map(SimTime::from_nanos);
        self.peak_hold = r.f64("loop.peak_hold")?;
        self.energy = r.f64("loop.energy")?;
        self.voltage_sum = r.f64("loop.voltage_sum")?;
        self.trace_sum = r.f64("loop.trace_sum")?;
        self.vtrace_sum = r.f64("loop.vtrace_sum")?;
        self.trace_count = r.usize("loop.trace_count")?;
        for tr in &mut self.trackers {
            tr.load_state(r)?;
        }
        if r.bool("loop.trace")? != self.trace.is_some() {
            return None;
        }
        if let Some(series) = self.trace.as_mut() {
            series.load_state(r)?;
        }
        if r.bool("loop.voltage_trace")? != self.voltage_trace.is_some() {
            return None;
        }
        if let Some(series) = self.voltage_trace.as_mut() {
            series.load_state(r)?;
        }
        let work_snapshot = r.f64_vec("loop.work_snapshot")?;
        if work_snapshot.len() != self.n_domains {
            return None;
        }
        self.lanes.work_snapshot = work_snapshot;
        let rates = r.f64_vec("loop.progress")?;
        if rates.len() != self.n_domains {
            return None;
        }
        for (p, rate) in self.lanes.progress.iter_mut().zip(rates) {
            p.relative_rate = rate;
        }
        let priorities = r.f64_vec("loop.priorities")?;
        if priorities.len() != self.n_domains {
            return None;
        }
        self.lanes.priorities = priorities;
        self.last_policy_tick = r.usize("loop.last_policy_tick")?;
        for dh in &mut self.lanes.dom_health {
            dh.load_state(r)?;
        }
        self.sensor_dog.load_state(r)?;
        self.emergency.load_state(r)?;
        self.held_reading = Watt::new(r.f64("loop.held_reading")?);
        self.sensor_fault_active = r.bool("loop.sensor_fault_active")?;
        self.slew_fault_active = r.bool("loop.slew_fault_active")?;
        self.lanes.link_fault_active = u64_to_bools(&r.u64_vec("loop.link_fault_active")?, self.n_domains)?;
        self.lanes.ctl_fault_active = u64_to_bools(&r.u64_vec("loop.ctl_fault_active")?, self.n_domains)?;
        self.resilience.faults_injected = r.u64("loop.res.faults_injected")?;
        self.resilience.health_transitions = r.u64("loop.res.health_transitions")?;
        self.resilience.emergency_engagements = r.u64("loop.res.emergency_engagements")?;
        self.resilience.emergency_quanta = r.u64("loop.res.emergency_quanta")?;
        Some(())
    }
}

/// Bool-vector codec for the checkpoint (the state format has no bool
/// slices; 0/1 words keep the lines grep-able).
fn bools_to_u64(bs: &[bool]) -> Vec<u64> {
    bs.iter().map(|&b| u64::from(b)).collect()
}

/// Inverse of [`bools_to_u64`], length-checked and rejecting non-0/1 words.
fn u64_to_bools(vs: &[u64], expect: usize) -> Option<Vec<bool>> {
    if vs.len() != expect || vs.iter().any(|&v| v > 1) {
        return None;
    }
    Some(vs.iter().map(|&v| v == 1).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::PowerLimit;
    use crate::pid::PidGains;
    use hcapp_workloads::combos::combo_suite;

    fn short_run(scheme: ControlScheme) -> RunOutcome {
        let sys = SystemConfig::paper_system(combo_suite()[3], 11); // Hi-Hi
        let target = PowerLimit::package_pin().guardbanded_target();
        let run = RunConfig::new(SimDuration::from_millis(4), scheme, target);
        Simulation::new(sys, run).run()
    }

    #[test]
    fn fixed_baseline_runs_and_draws_power() {
        let out = short_run(ControlScheme::fixed_baseline());
        assert!(out.avg_power.value() > 20.0, "avg {} too low", out.avg_power);
        assert!(
            out.avg_power.value() < 100.0,
            "avg {} too high",
            out.avg_power
        );
        for (_, w) in &out.work {
            assert!(*w > 0.0);
        }
    }

    #[test]
    fn hcapp_tracks_target() {
        let out = short_run(ControlScheme::Hcapp);
        let target = PowerLimit::package_pin().guardbanded_target().value();
        assert!(
            out.avg_power.value() > 0.80 * target,
            "avg {} too far below target {target}",
            out.avg_power
        );
        assert!(
            out.avg_power.value() < 1.05 * target,
            "avg {} above target {target}",
            out.avg_power
        );
    }

    #[test]
    fn hcapp_faster_than_fixed_on_hi_hi() {
        let fixed = short_run(ControlScheme::fixed_baseline());
        let hcapp = short_run(ControlScheme::Hcapp);
        let s = hcapp.speedup_vs(&fixed);
        assert!(s > 1.0, "HCAPP speedup {s} should exceed 1.0");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = short_run(ControlScheme::Hcapp);
        let b = short_run(ControlScheme::Hcapp);
        assert_eq!(a.avg_power, b.avg_power);
        assert_eq!(a.work, b.work);
        assert_eq!(a.windowed_max, b.windowed_max);
    }

    #[test]
    fn trace_recording_shape() {
        let sys = SystemConfig::paper_system(combo_suite()[0], 5);
        let run = RunConfig::new(
            SimDuration::from_millis(2),
            ControlScheme::fixed_baseline(),
            Watt::new(86.0),
        )
        .with_trace();
        let out = Simulation::new(sys, run).run();
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.len(), 2000); // 2 ms at 1 µs samples
        assert!(trace.mean() > 0.0);
    }

    #[test]
    fn voltage_trace_reflects_scheme() {
        let limit = PowerLimit::package_pin();
        let mk = |scheme| {
            let sys = SystemConfig::paper_system(combo_suite()[6], 5); // Low-Low
            let run = RunConfig::new(
                SimDuration::from_millis(2),
                scheme,
                limit.guardbanded_target(),
            )
            .with_voltage_trace();
            Simulation::new(sys, run).run()
        };
        let fixed = mk(ControlScheme::fixed_baseline());
        let hcapp = mk(ControlScheme::Hcapp);
        let vf = fixed.voltage_trace.expect("trace");
        let vh = hcapp.voltage_trace.expect("trace");
        // Fixed: flat at 0.95 V.
        assert!((vf.max().unwrap() - 0.95).abs() < 1e-6);
        assert!((vf.min().unwrap() - 0.95).abs() < 1e-6);
        // HCAPP on a light workload raises the rail well above the fixed
        // point to soak up the budget.
        assert!(vh.mean() > 1.0, "HCAPP mean voltage {}", vh.mean());
        // And the trace stays within the PID's legal output range.
        assert!(vh.max().unwrap() <= PidGains::paper_default().out_max + 1e-9);
        assert!(vh.min().unwrap() >= PidGains::paper_default().out_min - 1e-9);
    }

    #[test]
    fn windowed_max_at_least_average() {
        let out = short_run(ControlScheme::fixed_baseline());
        for (_, max) in &out.windowed_max {
            if max.value() > 0.0 {
                assert!(max.value() >= out.avg_power.value() - 1e-6);
            }
        }
    }

    #[test]
    fn custom_period_between_schemes() {
        let out = short_run(ControlScheme::CustomPeriod(SimDuration::from_micros(10)));
        assert!(out.avg_power.value() > 0.0);
    }

    #[test]
    fn static_priority_policy_boosts_target_component() {
        let sys = SystemConfig::paper_system(combo_suite()[3], 11);
        let target = PowerLimit::package_pin().guardbanded_target();
        let base = Simulation::new(
            sys.clone(),
            RunConfig::new(SimDuration::from_millis(4), ControlScheme::Hcapp, target),
        )
        .run();
        let pri = Simulation::new(
            sys,
            RunConfig::new(SimDuration::from_millis(4), ControlScheme::Hcapp, target)
                .with_software(SoftwareConfig::StaticPriority(ComponentKind::Sha)),
        )
        .run();
        let sha_base = base.work_for(ComponentKind::Sha).unwrap();
        let sha_pri = pri.work_for(ComponentKind::Sha).unwrap();
        assert!(
            sha_pri > sha_base,
            "prioritized SHA should do more work: {sha_pri} vs {sha_base}"
        );
    }

    #[test]
    #[should_panic(expected = "duration must be a multiple")]
    fn misaligned_duration_panics() {
        let sys = SystemConfig::paper_system(combo_suite()[0], 1);
        let run = RunConfig::new(
            SimDuration::from_nanos(12345),
            ControlScheme::Hcapp,
            Watt::new(86.0),
        );
        let _ = Simulation::new(sys, run);
    }
}

#[cfg(test)]
mod retarget_tests {
    use super::*;
    use crate::limits::PowerLimit;
    use hcapp_sim_core::window::WindowedMaxTracker;
    use hcapp_workloads::combos::combo_suite;

    /// §5.2's claim: the power target can change mid-run without re-tuning.
    /// We drop the target from 84 W to 60 W halfway through and check both
    /// halves regulate to their own setpoints with the same PID constants.
    #[test]
    fn mid_run_retarget_converges_without_retuning() {
        let sys = SystemConfig::paper_system(combo_suite()[3], 11); // Hi-Hi
        let run = RunConfig::new(
            SimDuration::from_millis(8),
            ControlScheme::Hcapp,
            Watt::new(84.0),
        )
        .with_retarget(SimTime::from_millis(4), Watt::new(60.0))
        .with_trace();
        let out = Simulation::new(sys, run).run();
        let trace = out.trace.expect("trace");
        let half = trace.len() / 2;
        // Skip 1 ms of settling on each side.
        let first: f64 = trace.values()[1_000..half].iter().sum::<f64>()
            / (half - 1_000) as f64;
        let second: f64 = trace.values()[half + 1_000..].iter().sum::<f64>()
            / (trace.len() - half - 1_000) as f64;
        assert!(
            (first - 84.0).abs() < 8.0,
            "first half should regulate near 84 W, got {first}"
        );
        assert!(
            (second - 60.0).abs() < 8.0,
            "second half should regulate near 60 W, got {second}"
        );

        // The new, lower cap is respected over 20 µs windows in the second
        // half (re-check with a fresh tracker over the trace).
        let mut tracker = WindowedMaxTracker::new(20);
        for &p in &trace.values()[half + 1_000..] {
            tracker.push(p);
        }
        let max2 = tracker.max().unwrap();
        assert!(
            max2 <= 60.0 / PowerLimit::package_pin().guardband_factor() * 1.02,
            "second-half max {max2} too high for a 60 W target"
        );
    }

    #[test]
    #[should_panic(expected = "chronological")]
    fn out_of_order_retargets_panic() {
        let _ = RunConfig::new(
            SimDuration::from_millis(1),
            ControlScheme::Hcapp,
            Watt::new(84.0),
        )
        .with_retarget(SimTime::from_millis(2), Watt::new(60.0))
        .with_retarget(SimTime::from_millis(1), Watt::new(70.0));
    }
}
