//! The SHA accelerator chiplet.
//!
//! Implements §4.4's model: each control interval the accelerator hashes
//! `throughput(V) · dt` bits off its backlog and draws `power(V)`; when a
//! one-shot backlog drains it idles at a leakage floor. The evaluation runs
//! use a looping backlog so the accelerator stays busy for the whole test
//! (the paper loops short workloads, §4).

use hcapp_sim_core::frame::StepFrame;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_workloads::sha::ShaWorkload;

use crate::config::ShaConfig;
use crate::lut::LookupTable;

/// The SHA accelerator simulator.
#[derive(Debug, Clone)]
pub struct ShaAccelerator {
    cfg: ShaConfig,
    lane_tp: LookupTable,
    lane_pw: LookupTable,
    workload: ShaWorkload,
    last_power: Watt,
    /// One-entry operating-point memo for the kernel path: clamped
    /// voltage bit pattern → (busy power W, throughput Gbps). A pure-
    /// function cache over the two LUTs — derived state, deliberately
    /// excluded from the [`Snapshot`](hcapp_sim_core::state::Snapshot)
    /// sections.
    memo: Option<(u64, f64, f64)>,
}

impl ShaAccelerator {
    /// Build an accelerator with a looping backlog (the evaluation setup).
    pub fn new(cfg: ShaConfig) -> Self {
        cfg.validate();
        let workload = ShaWorkload::looping(cfg.backlog_gbits);
        Self::with_workload(cfg, workload)
    }

    /// Build with an explicit workload (one-shot backlogs hit the idle
    /// state of §4.4).
    pub fn with_workload(cfg: ShaConfig, workload: ShaWorkload) -> Self {
        cfg.validate();
        ShaAccelerator {
            lane_tp: cfg.lane_throughput_gbps(),
            lane_pw: cfg.lane_power_mw(),
            cfg,
            workload,
            last_power: Watt::ZERO,
            memo: None,
        }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &ShaConfig {
        &self.cfg
    }

    /// Advance one tick at lane voltage `v` (already domain-normalized).
    /// Returns the accelerator power this tick.
    pub fn step(&mut self, v: Volt, dt: SimDuration) -> Watt {
        let mut acc = 0.0;
        self.step_into(&mut StepFrame::new(&[v], dt, &mut acc));
        self.last_power
    }

    /// Advance one tick through a borrowed [`StepFrame`] — the
    /// quantum-stepper kernel's entry point; [`ShaAccelerator::step`] wraps
    /// it. `frame.voltages[0]` is the lane voltage (the accelerator is a
    /// single controllable unit); the power is added to `frame.power_acc`.
    /// Both LUT evaluations are pure in the clamped voltage, so the
    /// one-entry memo only skips recomputation, never changes a value.
    pub fn step_into(&mut self, frame: &mut StepFrame<'_>) {
        let v = frame.voltages[0].clamp(self.cfg.v_min, self.cfg.v_max);
        let bits = v.value().to_bits();
        let (busy_power, tp_gbps) = match self.memo {
            Some((b, bp, tp)) if b == bits => (bp, tp),
            _ => {
                let bp = self.lane_pw.eval(v.value()) * 1e-3 * self.cfg.lanes as f64;
                let tp = self.lane_tp.eval(v.value()) * self.cfg.lanes as f64;
                self.memo = Some((bits, bp, tp));
                (bp, tp)
            }
        };
        if self.workload.is_idle() {
            self.last_power = Watt::new(busy_power * self.cfg.idle_fraction);
            *frame.power_acc += self.last_power.value();
            return;
        }
        let gbits = tp_gbps * frame.dt.as_secs_f64();
        let drained = self.workload.drain(gbits);
        let busy_frac = if gbits > 0.0 { drained / gbits } else { 0.0 };
        self.last_power = Watt::new(
            busy_power * busy_frac + busy_power * self.cfg.idle_fraction * (1.0 - busy_frac),
        );
        *frame.power_acc += self.last_power.value();
    }

    /// Power drawn last tick.
    pub fn power(&self) -> Watt {
        self.last_power
    }

    /// Total hashing work completed in gigabits — the accelerator's
    /// performance metric.
    pub fn work_done(&self) -> f64 {
        self.workload.completed_gbits()
    }

    /// True when a one-shot backlog has drained (§4.4 idle state).
    pub fn is_idle(&self) -> bool {
        self.workload.is_idle()
    }
}

impl hcapp_sim_core::state::Snapshot for ShaAccelerator {
    fn save_state(&self, w: &mut hcapp_sim_core::state::StateWriter) {
        self.workload.save_state(w);
        w.f64("sha.last_power", self.last_power.0);
    }

    fn load_state(&mut self, r: &mut hcapp_sim_core::state::StateReader<'_>) -> Option<()> {
        self.workload.load_state(r)?;
        self.last_power = Watt(r.f64("sha.last_power")?);
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcapp_sim_core::assert_close;

    fn accel() -> ShaAccelerator {
        ShaAccelerator::new(ShaConfig::default())
    }

    #[test]
    fn step_into_golden_digest() {
        // Pins the tick physics bit for bit: per-tick power and hashed
        // work across a voltage sweep that both repeats values (memo hits)
        // and changes them (memo misses).
        let mut a = accel();
        let dt = SimDuration::from_micros(1);
        let mut bits = Vec::new();
        for t in 0..10_000u64 {
            let v = [Volt::new(0.4 + 0.5 * ((t / 13 % 10) as f64 / 10.0))];
            let mut acc = 0.0;
            a.step_into(&mut StepFrame::new(&v, dt, &mut acc));
            bits.push(acc.to_bits());
        }
        bits.push(a.work_done().to_bits());
        // 64-bit FNV-1a over the little-endian bytes of every pinned value.
        let fnv1a = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        let h = bits
            .iter()
            .flat_map(|b| b.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, fnv1a);
        assert_eq!(h, 0x333a_45ce_3ba9_d600, "golden digest {h:#018x}");
    }

    #[test]
    fn busy_power_matches_lut() {
        let mut a = accel();
        let p = a.step(Volt::new(0.95), SimDuration::from_micros(1));
        assert_close!(p.value(), a.config().busy_power_w(Volt::new(0.95)), 1e-9);
    }

    #[test]
    fn work_rate_matches_throughput() {
        let mut a = accel();
        let v = Volt::new(0.70);
        let dt = SimDuration::from_micros(1);
        for _ in 0..1000 {
            a.step(v, dt);
        }
        // 1 ms at 1800 Gbps = 1.8 gbit.
        let expected = a.config().throughput_gbps(v) * 1e-3;
        assert_close!(a.work_done(), expected, 1e-6);
    }

    #[test]
    fn higher_voltage_hashes_faster_for_more_power() {
        let mut slow = accel();
        let mut fast = accel();
        let dt = SimDuration::from_micros(1);
        let mut e_slow = 0.0;
        let mut e_fast = 0.0;
        for _ in 0..1000 {
            e_slow += slow.step(Volt::new(0.5), dt).value();
            e_fast += fast.step(Volt::new(0.9), dt).value();
        }
        assert!(fast.work_done() > slow.work_done() * 2.0);
        assert!(e_fast > e_slow * 2.0);
    }

    #[test]
    fn one_shot_backlog_reaches_idle_state() {
        let cfg = ShaConfig::default();
        // A tiny backlog: drains in well under a millisecond at 0.9 V.
        let wl = ShaWorkload::fixed(0.5);
        let mut a = ShaAccelerator::with_workload(cfg, wl);
        let dt = SimDuration::from_micros(1);
        let busy = a.step(Volt::new(0.9), dt).value();
        for _ in 0..1000 {
            a.step(Volt::new(0.9), dt);
        }
        assert!(a.is_idle());
        let idle = a.power().value();
        assert!(idle < busy * 0.1, "idle {idle} vs busy {busy}");
        assert_close!(a.work_done(), 0.5, 1e-9);
    }

    #[test]
    fn undervoltage_clamps_to_minimum_operating_point() {
        let mut a = accel();
        let p = a.step(Volt::new(0.05), SimDuration::from_micros(1)).value();
        let p_min = a.config().busy_power_w(Volt::new(0.23));
        assert_close!(p, p_min, 1e-9);
    }

    #[test]
    fn deterministic() {
        let mut a = accel();
        let mut b = accel();
        let dt = SimDuration::from_micros(1);
        for i in 0..1000 {
            let v = Volt::new(0.5 + 0.4 * ((i % 10) as f64 / 10.0));
            assert_eq!(a.step(v, dt), b.step(v, dt));
        }
        assert_eq!(a.work_done(), b.work_done());
    }
}
