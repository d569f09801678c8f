//! Borrow-based stepping frame for the quantum-stepper kernel.
//!
//! The kernel hands each chiplet simulator a [`StepFrame`] borrowing the
//! per-unit voltage lane and the power accumulator slot for the current
//! tick; the simulator's `step_into` writes straight through the borrow.
//! `step_into` is each chiplet's one implementation of its tick physics
//! (the `step(&[Volt], dt) -> Watt` conveniences wrap it), pinned by the
//! per-crate `step_into_golden_digest` tests and the golden-digest corpus
//! (`tests/golden_digests.txt`).

use crate::time::SimDuration;
use crate::units::Volt;

/// One tick's borrowed inputs and outputs for a chiplet simulator.
#[derive(Debug)]
pub struct StepFrame<'a> {
    /// Supply voltage per locally-controllable unit (core / SM / lane).
    pub voltages: &'a [Volt],
    /// Model tick length.
    pub dt: SimDuration,
    /// The tick's package-power accumulator slot; the simulator *adds*
    /// its chiplet power (in watts) to whatever is already there.
    pub power_acc: &'a mut f64,
}

impl<'a> StepFrame<'a> {
    /// Bundle a tick's borrows.
    #[inline]
    pub fn new(voltages: &'a [Volt], dt: SimDuration, power_acc: &'a mut f64) -> Self {
        StepFrame {
            voltages,
            dt,
            power_acc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_accumulates_through_the_borrow() {
        let volts = [Volt::new(0.9); 2];
        let mut acc = 1.5;
        let frame = StepFrame::new(&volts, SimDuration::from_nanos(100), &mut acc);
        *frame.power_acc += 2.5;
        assert_eq!(acc, 4.0);
    }
}
