//! The 15-SM GPU chiplet.
//!
//! Structure mirrors `hcapp_cpu_sim::chiplet`: a shared workload program
//! (Rodinia kernels launch across all SMs), per-SM jitter, an uncore (L2 +
//! memory controllers) and a GPUWattch-style energy breakdown.

use hcapp_power_model::breakdown::PowerBreakdown;
use hcapp_power_model::ComponentPowerModel;
use hcapp_sim_core::frame::StepFrame;
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Hertz, Volt, Watt};
use hcapp_workloads::program::{WorkloadProgram, WorkloadSource};

use crate::config::GpuConfig;
use crate::sm::StreamingMultiprocessor;
use crate::warp::WarpModel;

/// The GPU chiplet simulator.
#[derive(Debug, Clone)]
pub struct GpuChiplet {
    cfg: GpuConfig,
    sms: Vec<StreamingMultiprocessor>,
    uncore: ComponentPowerModel,
    program: WorkloadProgram,
    workload_name: String,
    last_ipc: Vec<f64>,
    last_power: Watt,
    breakdown: PowerBreakdown,
}

impl GpuChiplet {
    /// Build a chiplet running `workload` (a [`BenchmarkSpec`] or a recorded
    /// trace via [`WorkloadSource`]), with randomness derived from
    /// `(seed, stream_base)`.
    ///
    /// [`BenchmarkSpec`]: hcapp_workloads::spec::BenchmarkSpec
    pub fn new(
        cfg: GpuConfig,
        workload: impl Into<WorkloadSource>,
        seed: u64,
        stream_base: u64,
    ) -> Self {
        let workload = workload.into();
        cfg.validate();
        let fm = cfg.frequency_model();
        let sm_model = ComponentPowerModel::calibrated(
            fm.clone(),
            cfg.v_nominal,
            cfg.sm_peak_dynamic,
            cfg.sm_leakage,
        );
        let uncore = ComponentPowerModel::calibrated(
            fm,
            cfg.v_nominal,
            cfg.uncore_peak_dynamic,
            cfg.uncore_leakage,
        );
        let f_nominal = sm_model.frequency(cfg.v_nominal).value();
        let warp = WarpModel::new(cfg.max_warps, cfg.warp_half_occupancy);
        let jitter_ticks = (cfg.jitter_resample_ns / 100).max(1);
        let sms = (0..cfg.sms)
            .map(|i| {
                StreamingMultiprocessor::new(
                    sm_model.clone(),
                    warp,
                    f_nominal,
                    cfg.sm_jitter_std,
                    jitter_ticks,
                    DeterministicRng::derive(seed, stream_base + 1 + i as u64),
                )
            })
            .collect();
        let program = workload.instantiate(seed, stream_base);
        GpuChiplet {
            last_ipc: vec![0.0; cfg.sms],
            cfg,
            sms,
            uncore,
            workload_name: workload.name().to_string(),
            program,
            last_power: Watt::ZERO,
            breakdown: PowerBreakdown::new(),
        }
    }

    /// Number of locally-controllable units (SMs).
    pub fn units(&self) -> usize {
        self.sms.len()
    }

    /// The chiplet configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Advance one tick with one supply voltage per SM. Returns total
    /// chiplet power.
    ///
    /// # Panics
    /// Panics if `sm_voltages.len() != units()`.
    pub fn step(&mut self, sm_voltages: &[Volt], dt: SimDuration) -> Watt {
        let mut acc = 0.0;
        self.step_into(&mut StepFrame::new(sm_voltages, dt, &mut acc));
        self.last_power
    }

    /// Advance one tick through a borrowed [`StepFrame`] — the
    /// quantum-stepper kernel's entry point; [`GpuChiplet::step`] wraps it.
    /// Adds the chiplet power to `frame.power_acc`. The voltage-only model
    /// evaluations (frequency, leakage) are memoized per distinct
    /// consecutive SM voltage, exactly like the CPU chiplet.
    ///
    /// # Panics
    /// Panics if `frame.voltages.len() != units()`.
    pub fn step_into(&mut self, frame: &mut StepFrame<'_>) {
        assert_eq!(
            frame.voltages.len(),
            self.sms.len(),
            "need one voltage per SM"
        );
        let dt = frame.dt;
        let sample = self.program.sample();
        let mut total_sm_power = Watt::ZERO;
        let mut total_dynamic = Watt::ZERO;
        let mut total_rate = 0.0;
        let mut v_sum = 0.0;
        let dt_ns = dt.as_nanos() as f64;
        let mut memo_v = f64::NAN.to_bits();
        let mut memo_f = Hertz::ZERO;
        let mut memo_leak = Watt::ZERO;
        for (i, sm) in self.sms.iter_mut().enumerate() {
            let v = frame.voltages[i].clamp(self.cfg.v_min, self.cfg.v_max);
            v_sum += v.value();
            if v.value().to_bits() != memo_v {
                let (f, leak) = sm.model().operating_point(v);
                memo_v = v.value().to_bits();
                memo_f = f;
                memo_leak = leak;
            }
            let out = sm.step_at(v, memo_f, memo_leak, sample, dt);
            total_sm_power += out.power;
            total_dynamic += out.power - memo_leak;
            total_rate += out.work_ns / dt_ns;
            self.last_ipc[i] = out.ipc_fraction;
        }
        let avg_rate = total_rate / self.sms.len() as f64;
        self.program.advance(avg_rate * dt_ns);

        let mean_v = Volt::new(v_sum / self.sms.len() as f64);
        let uncore_activity = sample.mem_intensity * sample.activity;
        let uncore_power = self.uncore.power(mean_v, uncore_activity);

        let leakage = total_sm_power - total_dynamic;
        self.breakdown.record(total_dynamic, leakage, uncore_power, dt);

        self.last_power = total_sm_power + uncore_power;
        *frame.power_acc += self.last_power.value();
    }

    /// Per-SM measured IPC fractions from the last step.
    pub fn ipc_fractions(&self) -> &[f64] {
        &self.last_ipc
    }

    /// Total chiplet power from the last step.
    pub fn power(&self) -> Watt {
        self.last_power
    }

    /// Program work completed so far, in nominal nanoseconds.
    pub fn work_done(&self) -> f64 {
        self.program.work_done()
    }

    /// GPUWattch-style energy breakdown.
    pub fn breakdown(&self) -> &PowerBreakdown {
        &self.breakdown
    }

    /// The name of the workload this chiplet runs.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }
}

impl hcapp_sim_core::state::Snapshot for GpuChiplet {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        for sm in &self.sms {
            sm.save_state(w);
        }
        self.program.save_state(w);
        w.f64_slice("gpu.last_ipc", &self.last_ipc);
        w.f64("gpu.last_power", self.last_power.0);
        self.breakdown.save_state(w);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        for sm in &mut self.sms {
            sm.load_state(r)?;
        }
        self.program.load_state(r)?;
        let ipc = r.f64_vec("gpu.last_ipc")?;
        if ipc.len() != self.last_ipc.len() {
            return None;
        }
        self.last_ipc = ipc;
        self.last_power = Watt(r.f64("gpu.last_power")?);
        self.breakdown.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_workloads::benchmarks::Benchmark;

    fn chiplet(b: Benchmark) -> GpuChiplet {
        GpuChiplet::new(GpuConfig::default(), b.spec(), 42, 200)
    }

    fn run(c: &mut GpuChiplet, v: f64, ticks: usize) -> (f64, f64) {
        let volts = vec![Volt::new(v); c.units()];
        let dt = SimDuration::from_nanos(100);
        let mut energy = 0.0;
        for _ in 0..ticks {
            energy += c.step(&volts, dt).value() * dt.as_secs_f64();
        }
        (energy, c.work_done())
    }

    #[test]
    fn fifteen_units_by_default() {
        assert_eq!(chiplet(Benchmark::Backprop).units(), 15);
    }

    #[test]
    fn step_into_golden_digest() {
        // Pins the tick physics bit for bit: per-tick power, IPC, workload
        // cursor and breakdown, with a per-SM voltage spread every 11th
        // tick (the operating-point memo's miss path).
        let mut c = chiplet(Benchmark::Bfs);
        let dt = SimDuration::from_nanos(100);
        let mut bits = Vec::new();
        for t in 0..20_000u64 {
            let spread = if t % 11 == 0 { 0.005 } else { 0.0 };
            let volts: Vec<Volt> = (0..c.units())
                .map(|i| Volt::new(0.55 + 0.3 * ((t % 90) as f64 / 90.0) + spread * i as f64))
                .collect();
            let mut acc = 0.0;
            c.step_into(&mut StepFrame::new(&volts, dt, &mut acc));
            bits.push(acc.to_bits());
            bits.extend(c.ipc_fractions().iter().map(|f| f.to_bits()));
        }
        bits.push(c.work_done().to_bits());
        bits.push(c.breakdown().total_joules().to_bits());
        // 64-bit FNV-1a over the little-endian bytes of every pinned value.
        let fnv1a = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        let h = bits
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, fnv1a);
        assert_eq!(h, 0xdca9_f2d1_a6cb_da74, "golden digest {h:#018x}");
    }

    #[test]
    fn power_bounded_by_peak() {
        let mut c = chiplet(Benchmark::Backprop);
        let volts = vec![Volt::new(0.72); c.units()];
        let dt = SimDuration::from_nanos(100);
        let peak = c.config().peak_power_at(Volt::new(0.72)).value();
        for _ in 0..10_000 {
            let p = c.step(&volts, dt).value();
            assert!(p > 0.0 && p <= peak + 1e-6, "power {p} vs peak {peak}");
        }
    }

    #[test]
    fn myocyte_draws_much_less_than_backprop() {
        let mut low = chiplet(Benchmark::Myocyte);
        let mut hi = chiplet(Benchmark::Backprop);
        let (e_low, _) = run(&mut low, 0.72, 50_000);
        let (e_hi, _) = run(&mut hi, 0.72, 50_000);
        assert!(e_hi > e_low * 1.5, "Hi {e_hi} J vs Low {e_low} J");
    }

    #[test]
    fn voltage_scales_work() {
        let mut slow = chiplet(Benchmark::Sradv2);
        let mut fast = chiplet(Benchmark::Sradv2);
        let (_, w_slow) = run(&mut slow, 0.55, 20_000);
        let (_, w_fast) = run(&mut fast, 0.90, 20_000);
        assert!(w_fast > w_slow * 1.3);
    }

    #[test]
    fn deterministic_replay() {
        let mut a = chiplet(Benchmark::Bfs);
        let mut b = chiplet(Benchmark::Bfs);
        let volts = vec![Volt::new(0.7); a.units()];
        let dt = SimDuration::from_nanos(100);
        for _ in 0..5_000 {
            assert_eq!(a.step(&volts, dt), b.step(&volts, dt));
        }
        assert_eq!(a.work_done(), b.work_done());
    }

    #[test]
    fn breakdown_consistency() {
        let mut c = chiplet(Benchmark::Backprop);
        let (energy, _) = run(&mut c, 0.72, 10_000);
        let acc = c.breakdown().total_joules();
        assert!((acc - energy).abs() < 1e-6 * energy.max(1.0));
    }

    #[test]
    fn ipc_fractions_bounded() {
        let mut c = chiplet(Benchmark::Myocyte);
        let volts = vec![Volt::new(0.72); c.units()];
        c.step(&volts, SimDuration::from_nanos(100));
        for &f in c.ipc_fractions() {
            assert!((0.0..=1.0).contains(&f));
        }
    }

    #[test]
    #[should_panic(expected = "one voltage per SM")]
    fn wrong_arity_panics() {
        let mut c = chiplet(Benchmark::Bfs);
        c.step(&[Volt::new(0.7)], SimDuration::from_nanos(100));
    }
}
