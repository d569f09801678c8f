//! The traced replica: one simulation job driven through the simulator's
//! public layer functions in the coordinator's order, with host time taken
//! from outside around each layer call.
//!
//! The replica re-assembles the serial coordinator's quantum loop from
//! `GlobalController::update`, `VoltageRegulator::schedule_into`,
//! `LocalController::update`, `BroadcastLink::receive`,
//! `SupplyNetwork::deliver`, `ChipletSim::step_into`, `PowerSensor::sample`
//! and `WindowedMaxTracker::push` (plus the fault injector and health
//! watchdogs when the job carries a fault plan), then builds a
//! [`RunOutcome`] from its public fields. Its numbers only count when that
//! outcome's digest equals the untraced `Simulation::run` digest: otherwise
//! they describe a different program.
//!
//! Clock discipline: at most one clock pair per layer per quantum. Delivery
//! and chiplet stepping interleave per tick, so the traced pass times them
//! together and records their per-tick inputs and outputs; [`replay`] then
//! re-runs each of those layers alone over the recording and checks every
//! replayed output bit for bit.

use std::time::Instant;

use hcapp::coordinator::{QuantumCtl, RunConfig};
use hcapp::health::{DomainHealth, EmergencyThrottle, HealthState, SensorWatchdog};
use hcapp::outcome::{ResilienceCounters, RunOutcome};
use hcapp::scheme::ControlScheme;
use hcapp::software::{ComponentKind, DomainProgress, NoPolicy, SoftwarePolicy};
use hcapp::system::{ChipletSim, Domain, SystemConfig};
use hcapp::{DomainController, GlobalController};
use hcapp_faults::{CtlFault, FaultInjector};
use hcapp_pdn::{BroadcastLink, PowerSensor, SupplyNetwork, VoltageRegulator};
use hcapp_sim_core::frame::StepFrame;
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_sim_core::window::WindowedMaxTracker;

/// The coordinator's quantum for the uncontrolled fixed-voltage baseline
/// (`coordinator::FIXED_QUANTUM`, crate-private there). A drift shows as a
/// digest mismatch, never as silently wrong timings.
const FIXED_QUANTUM: SimDuration = SimDuration::from_micros(100);

/// Host nanoseconds spent in each layer during the traced pass, with the
/// work counts that normalize them.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    /// `GlobalController::update`, summed over the quanta that ran it.
    pub global_pid_ns: u64,
    /// Quanta that ran the global PID.
    pub pid_steps: u64,
    /// Fault injection: the plan's VR faults and every injector query.
    pub faults_ns: u64,
    /// Health watchdogs: domain heartbeats, sensor watchdog, emergency
    /// throttle.
    pub health_ns: u64,
    /// Timed fault-layer intervals (one per quantum under a fault plan).
    pub fault_steps: u64,
    /// Timed health-layer intervals.
    pub health_steps: u64,
    /// `VoltageRegulator::schedule_into`.
    pub vr_schedule_ns: u64,
    /// Quantum-boundary domain work: priority write and
    /// `LocalController::update`.
    pub local_update_ns: u64,
    /// Per-tick domain work: delivery and chiplet stepping together (the
    /// replay splits it).
    pub domains_ns: u64,
    /// Package aggregation: `PowerSensor::sample`, peak hold,
    /// `WindowedMaxTracker::push` and the energy/voltage sums.
    pub aggregate_ns: u64,
    /// Wall time of the whole traced pass, construction excluded.
    pub wall_ns: u64,
    /// Control quanta executed.
    pub quanta: u64,
    /// Package ticks executed.
    pub ticks: u64,
    /// Domain-ticks executed (ticks × domains).
    pub domain_ticks: u64,
    /// Domain-quanta executed (quanta × domains).
    pub domain_quanta: u64,
}

/// One domain's per-tick inputs and outputs from the traced pass, plus its
/// state at the start of the run — everything [`replay`] needs.
#[derive(Debug)]
struct DomainTape {
    kind: ComponentKind,
    sim0: ChipletSim,
    link0: BroadcastLink,
    network0: SupplyNetwork,
    ctl0: DomainController,
    /// Domain voltage per tick (delivery output, step input).
    v_dom: Vec<f64>,
    /// Chiplet power per tick (step output, next tick's IR-drop input).
    power: Vec<f64>,
    /// Local-controller ratios after each quantum's boundary update.
    ratios: Vec<f64>,
    /// Ratio count per quantum (constant per controller).
    n_ratios: usize,
    /// The coordinator's command for each quantum.
    ctls: Vec<QuantumCtl>,
    /// Cumulative work after the traced pass (checked after the replay).
    work_after: f64,
}

/// Everything the traced pass recorded.
#[derive(Debug)]
pub struct Recording {
    /// `(offset, ticks)` of every quantum in `v_sched`.
    quanta: Vec<(usize, usize)>,
    /// The global voltage schedule of the whole run.
    v_sched: Vec<f64>,
    domains: Vec<DomainTape>,
    unit_counts: Vec<usize>,
}

/// The traced pass's result.
#[derive(Debug)]
pub struct Traced {
    pub outcome: RunOutcome,
    pub times: PassTimes,
    pub recording: Recording,
}

/// Per-layer host time from [`replay`].
#[derive(Debug, Clone, Default)]
pub struct ReplayTimes {
    /// Link receive, network delivery and domain voltage, all domains.
    pub delivery_ns: u64,
    /// Chiplet stepping per kind, `[cpu, gpu, sha]`.
    pub step_ns: [u64; 3],
    /// Domain-ticks per kind, `[cpu, gpu, sha]`.
    pub step_ticks: [u64; 3],
    /// Domain-ticks replayed for delivery.
    pub delivery_ticks: u64,
    /// Replayed values that differed from the recording (must be 0).
    pub mismatches: u64,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Why a job cannot be replicated (it uses a coordinator feature the
/// replica does not mirror). The benchmark's own jobs never hit this.
fn unsupported(sys: &SystemConfig, run: &RunConfig) -> Option<&'static str> {
    if sys.ripple.is_some() {
        return Some("supply ripple");
    }
    if sys.thermal.is_some() {
        return Some("thermal guard");
    }
    if !run.retargets.is_empty() {
        return Some("scheduled retargets");
    }
    if run.record_trace || run.record_voltage_trace {
        return Some("trace recording");
    }
    if !matches!(run.software, hcapp::coordinator::SoftwareConfig::None) {
        return Some("software policy");
    }
    if run.tracer.is_some() || run.profiler.is_some() {
        return Some("attached tracer or profiler");
    }
    if sys
        .domains
        .iter()
        .any(|d| d.kind() == ComponentKind::Memory)
    {
        return Some("memory domain");
    }
    None
}

/// Run `(sys, run)` through the public layer functions, timing each layer
/// and recording the per-tick domain inputs for [`replay`].
///
/// # Panics
/// Panics if [`unsupported`] names a feature of the job.
pub fn traced_run(sys: &SystemConfig, run: &RunConfig) -> Traced {
    if let Some(what) = unsupported(sys, run) {
        panic!("the replica does not mirror {what}");
    }
    sys.validate();
    run.validate(sys);

    // Construction, as `Simulation::new` and the loop driver do it.
    let mut domains: Vec<Domain> = sys
        .domains
        .iter()
        .enumerate()
        .map(|(i, d)| Domain::build(d, sys, i))
        .collect();
    let gains = sys.pid;
    let v_init = match run.scheme {
        ControlScheme::FixedVoltage(v) => v,
        _ => sys.v_init,
    };
    let mut vr =
        VoltageRegulator::raven(Volt::new(gains.out_min), Volt::new(gains.out_max), v_init);
    let mut sensor = PowerSensor::new(sys.sensor_delay_ticks, sys.sensor_resolution);
    let mut global_ctl = GlobalController::new(gains, run.power_target);
    let mut policy = NoPolicy;

    let tick = sys.tick;
    let tick_s = tick.as_secs_f64();
    let dynamic = run.scheme.control_period().is_some();
    let period = run.scheme.control_period().unwrap_or(FIXED_QUANTUM);
    let quantum_ticks = period.ticks(tick) as usize;
    let total_ticks = run.duration.ticks(tick) as usize;
    let mut trackers: Vec<WindowedMaxTracker> = run
        .track_windows
        .iter()
        .map(|w| WindowedMaxTracker::new(w.ticks(tick) as usize))
        .collect();
    let kinds: Vec<ComponentKind> = domains.iter().map(|d| d.kind).collect();
    let nominal_rates: Vec<f64> = domains.iter().map(|d| d.nominal_rate).collect();
    let sw_interval = policy.interval_periods().max(1);
    let n = domains.len();
    let mut work_snapshot: Vec<f64> = domains.iter().map(|d| d.sim.work_done()).collect();
    let mut progress: Vec<DomainProgress> = kinds
        .iter()
        .map(|&kind| DomainProgress {
            kind,
            relative_rate: 1.0,
        })
        .collect();
    let mut priorities = vec![1.0f64; n];
    let mut ctls = vec![QuantumCtl::clean(1.0); n];
    let injector = run
        .faults
        .as_ref()
        .map(|p| FaultInjector::new(p.clone(), period));
    let degraded = run.degraded;
    let mut dom_health = vec![DomainHealth::new(); n];
    let mut heartbeats = vec![true; n];
    let mut link_fault_active = vec![false; n];
    let mut ctl_fault_active = vec![false; n];
    let mut link_faults = vec![None; n];
    let mut ctl_faults = vec![None; n];
    let mut sensor_dog = SensorWatchdog::new();
    let mut emergency = EmergencyThrottle::new();
    let mut held_reading = Watt::ZERO;
    let mut sensor_fault_active = false;
    let mut slew_fault_active = false;
    let mut resilience = ResilienceCounters::default();
    if let ControlScheme::FixedVoltage(v) = run.scheme {
        vr.set_target(SimTime::ZERO, v);
    }
    let v_floor = Volt::new(gains.out_min);

    let mut tapes: Vec<DomainTape> = domains
        .iter()
        .map(|d| DomainTape {
            kind: d.kind,
            sim0: d.sim.clone(),
            link0: d.link.clone(),
            network0: d.network.clone(),
            ctl0: d.ctl.clone(),
            v_dom: Vec::with_capacity(total_ticks),
            power: Vec::with_capacity(total_ticks),
            ratios: Vec::new(),
            n_ratios: d.local.ratios().len(),
            ctls: Vec::new(),
            work_after: 0.0,
        })
        .collect();
    let unit_counts: Vec<usize> = domains.iter().map(|d| d.sim.units()).collect();
    let mut unit_voltages: Vec<Vec<Volt>> =
        unit_counts.iter().map(|&u| vec![Volt::ZERO; u]).collect();
    let mut v_sched = vec![0.0f64; total_ticks];
    let mut power_acc = vec![0.0f64; quantum_ticks.min(total_ticks).max(1)];
    let mut quanta: Vec<(usize, usize)> = Vec::new();

    let mut t = PassTimes::default();
    let (mut energy, mut voltage_sum, mut peak_hold) = (0.0f64, 0.0f64, 0.0f64);
    let mut done = 0usize;
    let mut quantum_index = 0u64;
    let mut last_policy_tick = 0usize;
    let wall = Instant::now();

    while done < total_ticks {
        let nq = quantum_ticks.min(total_ticks - done);
        let t0 = SimTime::from_nanos(done as u64 * tick.as_nanos());

        // Fault layer: the plan's VR faults, then every injector query of
        // the quantum (all pure functions of the plan seed and `t0`), with
        // the episode-onset counters.
        let mut sensor_fault = None;
        if let Some(inj) = injector.as_ref() {
            let c = Instant::now();
            if let Some(depth) = inj.vr_droop(t0) {
                vr.droop(depth);
                resilience.faults_injected += 1;
            }
            let derate = inj.vr_slew_derate(t0);
            vr.set_slew_derate(derate.unwrap_or(1.0));
            if derate.is_some() && !slew_fault_active {
                resilience.faults_injected += 1;
            }
            slew_fault_active = derate.is_some();
            if dynamic {
                sensor_fault = inj.sensor_fault(t0);
                if sensor_fault.is_some() && !sensor_fault_active {
                    resilience.faults_injected += 1;
                }
                sensor_fault_active = sensor_fault.is_some();
            }
            for i in 0..n {
                link_faults[i] = inj.link_fault(t0, i);
                ctl_faults[i] = inj.ctl_fault(t0, i);
                if link_faults[i].is_some() && !link_fault_active[i] {
                    resilience.faults_injected += 1;
                }
                link_fault_active[i] = link_faults[i].is_some();
                if ctl_faults[i].is_some() && !ctl_fault_active[i] {
                    resilience.faults_injected += 1;
                }
                ctl_fault_active[i] = ctl_faults[i].is_some();
            }
            t.faults_ns += ns_since(c);
            t.fault_steps += 1;
        }

        let mut p_input = Watt::ZERO;
        if dynamic {
            if quantum_index.is_multiple_of(sw_interval) {
                let elapsed_ns = (done - last_policy_tick).max(1) as f64 * tick.as_nanos() as f64;
                for (i, d) in domains.iter().enumerate() {
                    let delta = d.sim.work_done() - work_snapshot[i];
                    progress[i] = DomainProgress {
                        kind: kinds[i],
                        relative_rate: if nominal_rates[i] > 0.0 {
                            delta / (elapsed_ns * nominal_rates[i])
                        } else {
                            1.0
                        },
                    };
                    work_snapshot[i] = d.sim.work_done();
                }
                policy.update(&progress, &mut priorities);
                last_policy_tick = done;
            }
            p_input = Watt::new(peak_hold.max(sensor.read().value()));
            peak_hold = 0.0;
        }

        // Health layer: the previous quantum's domain heartbeats (the
        // coordinator observes them right after that quantum's ticks; no
        // layer reads domain health in between), then the sensor watchdog
        // and the emergency throttle.
        let mut clamped = false;
        if injector.is_some() {
            let c = Instant::now();
            if quantum_index > 0 {
                observe_heartbeats(&mut dom_health, &heartbeats, &degraded, &mut resilience);
            }
            if dynamic {
                let sensed = p_input;
                let reading = match sensor_fault {
                    Some(f) => PowerSensor::faulted_reading(sensed, f, held_reading),
                    None => {
                        held_reading = sensed;
                        sensed
                    }
                };
                if sensor_dog
                    .observe(reading.value(), vr.output().value(), &degraded)
                    .is_some()
                {
                    resilience.health_transitions += 1;
                }
                p_input = if sensor_dog.state() == HealthState::Faulted {
                    sys.peak_power_at(vr.output())
                } else {
                    reading
                };
                let over = p_input.value() > global_ctl.target().value() * degraded.trip_margin;
                if emergency.observe(over, &degraded) == Some(true) {
                    resilience.emergency_engagements += 1;
                }
                clamped = emergency.engaged();
            }
            t.health_ns += ns_since(c);
            t.health_steps += 1;
        }

        if dynamic {
            if clamped {
                resilience.emergency_quanta += 1;
                vr.set_target(t0, v_floor);
            } else {
                let c = Instant::now();
                let v_next = global_ctl.update(p_input, period);
                t.global_pid_ns += ns_since(c);
                t.pid_steps += 1;
                vr.set_target(t0, v_next);
            }
        }

        let sched = &mut v_sched[done..done + nq];
        let c = Instant::now();
        vr.schedule_into(t0, tick, sched);
        t.vr_schedule_ns += ns_since(c);
        let sched = &v_sched[done..done + nq];

        if injector.is_some() {
            let em_scale = emergency.scale();
            for i in 0..n {
                ctls[i] = QuantumCtl {
                    priority: priorities[i],
                    throttle: dom_health[i].throttle() * em_scale,
                    link_fault: link_faults[i],
                    ctl_fault: ctl_faults[i],
                };
            }
        } else {
            for (c, &p) in ctls.iter_mut().zip(&priorities) {
                c.priority = p;
            }
        }

        // Quantum boundary of every domain. Domains are independent inside
        // a quantum, so running every boundary before any tick loop changes
        // no result (each domain still sees boundary-then-ticks).
        let c = Instant::now();
        for (d, ctl) in domains.iter_mut().zip(&ctls) {
            if ctl.ctl_fault != Some(CtlFault::DomainStuck) {
                d.ctl.set_priority(ctl.priority);
            }
            if dynamic {
                let v_dom = d.ctl.domain_voltage(d.last_delivered);
                if ctl.ctl_fault != Some(CtlFault::LocalSilent) {
                    d.local.update(d.sim.ipc_fractions(), v_dom);
                }
            }
        }
        t.local_update_ns += ns_since(c);
        for ((d, tape), ctl) in domains.iter().zip(tapes.iter_mut()).zip(&ctls) {
            tape.ratios.extend_from_slice(d.local.ratios());
            tape.ctls.push(*ctl);
        }

        // Per-tick domain work, in the serial executor's order: domain
        // major, so every tick slot sums its powers in domain order.
        let acc = &mut power_acc[..nq];
        acc.fill(0.0);
        let c = Instant::now();
        for (((d, ctl), tape), uv) in domains
            .iter_mut()
            .zip(&ctls)
            .zip(tapes.iter_mut())
            .zip(unit_voltages.iter_mut())
        {
            for (i, slot) in acc.iter_mut().enumerate() {
                let vg = d.link.receive(sched, i, ctl.link_fault);
                let delivered = d.network.deliver(0, Volt::new(vg), d.last_power);
                d.last_delivered = delivered;
                let v_dom = d.ctl.domain_voltage(delivered).value() * ctl.throttle;
                fill_unit_voltages(uv, d.local.ratios(), v_dom);
                let mut p = 0.0f64;
                let mut frame = StepFrame::new(uv, tick, &mut p);
                d.sim.step_into(&mut frame);
                d.last_power = Watt::new(p);
                *slot += p;
                tape.v_dom.push(v_dom);
                tape.power.push(p);
            }
            heartbeats[d.index] = ctl.ctl_fault.is_none();
        }
        t.domains_ns += ns_since(c);

        let c = Instant::now();
        for (i, &p) in acc.iter().enumerate() {
            let seen = sensor.sample(Watt::new(p)).value();
            if seen > peak_hold {
                peak_hold = seen;
            }
            for tr in &mut trackers {
                tr.push(p);
            }
            energy += p * tick_s;
            voltage_sum += sched[i];
        }
        t.aggregate_ns += ns_since(c);

        quanta.push((done, nq));
        done += nq;
        quantum_index += 1;
    }
    if injector.is_some() {
        let c = Instant::now();
        observe_heartbeats(&mut dom_health, &heartbeats, &degraded, &mut resilience);
        t.health_ns += ns_since(c);
        t.health_steps += 1;
    }
    t.wall_ns = ns_since(wall);
    t.quanta = quantum_index;
    t.ticks = total_ticks as u64;
    t.domain_ticks = (total_ticks * n) as u64;
    t.domain_quanta = quantum_index * n as u64;

    for (tape, d) in tapes.iter_mut().zip(&domains) {
        tape.work_after = d.sim.work_done();
    }
    let outcome = RunOutcome {
        scheme: run.scheme,
        duration: run.duration,
        avg_power: Watt::new(energy / run.duration.as_secs_f64()),
        energy_j: energy,
        windowed_max: run
            .track_windows
            .iter()
            .zip(&trackers)
            .map(|(w, tr)| (*w, Watt::new(tr.max().unwrap_or(0.0))))
            .collect(),
        work: kinds
            .iter()
            .zip(&domains)
            .map(|(k, d)| (*k, d.sim.work_done()))
            .collect(),
        mean_global_voltage: voltage_sum / total_ticks as f64,
        trace: None,
        voltage_trace: None,
        resilience,
    };
    Traced {
        outcome,
        times: t,
        recording: Recording {
            quanta,
            v_sched,
            domains: tapes,
            unit_counts,
        },
    }
}

/// Feed one quantum's heartbeats to the per-domain watchdogs.
fn observe_heartbeats(
    dom_health: &mut [DomainHealth],
    heartbeats: &[bool],
    degraded: &hcapp::DegradedConfig,
    resilience: &mut ResilienceCounters,
) {
    for (dh, &beat) in dom_health.iter_mut().zip(heartbeats) {
        if dh.observe(beat, degraded).is_some() {
            resilience.health_transitions += 1;
        }
    }
}

/// Per-unit voltages from the domain voltage and the local ratios, exactly
/// as `Domain::run_quantum` computes them.
#[inline]
fn fill_unit_voltages(uv: &mut [Volt], ratios: &[f64], v_dom: f64) {
    if ratios.len() == 1 {
        uv.fill(Volt::new(v_dom * ratios[0]));
    } else {
        for (u, &r) in uv.iter_mut().zip(ratios) {
            *u = Volt::new(v_dom * r);
        }
    }
}

fn kind_slot(kind: ComponentKind) -> usize {
    match kind {
        ComponentKind::Cpu => 0,
        ComponentKind::Gpu => 1,
        _ => 2,
    }
}

/// Re-run delivery and each chiplet's stepping alone over the recording,
/// from the state each domain had at the start of the traced pass. One
/// clock pair per domain per layer; outputs are stored and compared with
/// the recording bit for bit after the clock stops.
pub fn replay(rec: &Recording, tick: SimDuration) -> ReplayTimes {
    let mut r = ReplayTimes::default();
    for (tape, &units) in rec.domains.iter().zip(&rec.unit_counts) {
        let ticks = tape.v_dom.len();

        // Delivery: link receive, network deliver, domain voltage.
        let mut link = tape.link0.clone();
        let mut network = tape.network0.clone();
        let mut ctl = tape.ctl0.clone();
        let mut out = vec![0.0f64; ticks];
        let mut last_power = Watt::ZERO;
        let c = Instant::now();
        for (&(off, nq), qc) in rec.quanta.iter().zip(&tape.ctls) {
            if qc.ctl_fault != Some(CtlFault::DomainStuck) {
                ctl.set_priority(qc.priority);
            }
            let sched = &rec.v_sched[off..off + nq];
            for i in 0..nq {
                let vg = link.receive(sched, i, qc.link_fault);
                let delivered = network.deliver(0, Volt::new(vg), last_power);
                out[off + i] = ctl.domain_voltage(delivered).value() * qc.throttle;
                last_power = Watt::new(tape.power[off + i]);
            }
        }
        r.delivery_ns += ns_since(c);
        r.delivery_ticks += ticks as u64;
        r.mismatches += count_mismatches(&out, &tape.v_dom);

        // Chiplet stepping, fed the recorded domain voltages.
        let mut sim = tape.sim0.clone();
        let mut uv = vec![Volt::ZERO; units];
        let c = Instant::now();
        for (q, &(off, nq)) in rec.quanta.iter().enumerate() {
            let ratios = &tape.ratios[q * tape.n_ratios..(q + 1) * tape.n_ratios];
            for (slot, &v_dom) in out[off..off + nq]
                .iter_mut()
                .zip(&tape.v_dom[off..off + nq])
            {
                fill_unit_voltages(&mut uv, ratios, v_dom);
                let mut p = 0.0f64;
                let mut frame = StepFrame::new(&uv, tick, &mut p);
                sim.step_into(&mut frame);
                *slot = p;
            }
        }
        let slot = kind_slot(tape.kind);
        r.step_ns[slot] += ns_since(c);
        r.step_ticks[slot] += ticks as u64;
        r.mismatches += count_mismatches(&out, &tape.power);
        if sim.work_done().to_bits() != tape.work_after.to_bits() {
            r.mismatches += 1;
        }
    }
    r
}

fn count_mismatches(a: &[f64], b: &[f64]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| x.to_bits() != y.to_bits())
        .count() as u64
        + a.len().abs_diff(b.len()) as u64
}

/// Median cost of one back-to-back `Instant::now()` pair in ns, subtracted
/// from the layer totals (one pair per timed interval).
pub fn clock_pair_ns() -> f64 {
    let mut samples: Vec<u64> = (0..2_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}
