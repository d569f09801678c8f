//! simsan — the schedule-permutation sanitizer.
//!
//! The static side of the concurrency story is simlint rule L7 (lock
//! discipline over the worker pool's token stream); this module is the
//! dynamic counterpart that makes the same model *executable*: the pooled
//! executor's result must not depend on which thread steps which domain,
//! in what order, or how late each shard starts. The production code
//! guarantees this by giving every domain result buffers of its own and
//! merging them in domain order ([`crate::parallel`]); simsan re-runs the
//! executor under adversarial schedules — a seeded non-contiguous
//! domain→shard assignment, and per dispatch a seeded start delay and
//! member order for every shard — and asserts every outcome is
//! **byte-identical** to the serial run, compared through
//! [`crate::cache::encode_outcome`], which spells every f64 as its
//! IEEE-754 bit pattern, so "identical" means identical bits, not
//! approximately-equal floats.
//!
//! Each schedule is drawn from `DeterministicRng::derive(seed, dispatch)`,
//! so a failure reproduces from `(seed, workers)` alone — the report
//! carries exactly that.

use crate::cache::encode_outcome;
use crate::coordinator::{RunConfig, Simulation};
use crate::system::SystemConfig;

/// One permuted run that differed from the serial reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Permutation seed whose ordering produced the divergent outcome.
    pub seed: u64,
    /// Worker count the divergent run used.
    pub workers: usize,
}

/// Result of a sanitizer sweep.
#[derive(Debug, Clone)]
pub struct SanitizerReport {
    /// Distinct schedules exercised.
    pub orderings: usize,
    /// Worker counts exercised (each seed runs once per count).
    pub worker_counts: Vec<usize>,
    /// Every `(seed, workers)` whose outcome differed from serial.
    pub mismatches: Vec<Mismatch>,
    /// Byte length of the serial reference encoding (a cheap fingerprint
    /// for logs; equality was checked on the full encoding).
    pub reference_len: usize,
}

impl SanitizerReport {
    /// Whether every permuted ordering matched the serial reference.
    pub fn clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// The default seed set: `0..n`. Seeds are folded through the RNG's
/// stream derivation, so small consecutive integers still produce
/// unrelated schedules.
pub fn default_seeds(n: usize) -> Vec<u64> {
    (0..n as u64).collect()
}

/// Run the sanitizer: one serial reference run, then one permuted pooled
/// run per `(seed, worker count)`, comparing encoded outcomes bytewise.
pub fn check_permutations(
    sys: &SystemConfig,
    run: &RunConfig,
    worker_counts: &[usize],
    seeds: &[u64],
) -> SanitizerReport {
    let serial = Simulation::new(sys.clone(), run.clone()).run();
    let reference = encode_outcome(&serial);
    let mut mismatches = Vec::new();
    for &workers in worker_counts {
        for &seed in seeds {
            let out = Simulation::new(sys.clone(), run.clone())
                .run_parallel_permuted(workers, seed);
            if encode_outcome(&out) != reference {
                mismatches.push(Mismatch { seed, workers });
            }
        }
    }
    SanitizerReport {
        orderings: seeds.len() * worker_counts.len(),
        worker_counts: worker_counts.to_vec(),
        mismatches,
        reference_len: reference.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::PowerLimit;
    use crate::scheme::ControlScheme;
    use hcapp_sim_core::time::SimDuration;
    use hcapp_workloads::combos::combo_suite;

    fn job(seed: u64) -> (SystemConfig, RunConfig) {
        let sys = SystemConfig::paper_system(combo_suite()[2], seed);
        let target = PowerLimit::package_pin().guardbanded_target();
        let run = RunConfig::new(
            SimDuration::from_millis(1),
            ControlScheme::Hcapp,
            target,
        );
        (sys, run)
    }

    #[test]
    fn sixteen_permuted_orderings_match_serial_bytewise() {
        let (sys, run) = job(29);
        let report = check_permutations(&sys, &run, &[3], &default_seeds(16));
        assert_eq!(report.orderings, 16);
        assert!(
            report.clean(),
            "permuted schedules changed the outcome: {:?}",
            report.mismatches
        );
    }

    #[test]
    fn permutations_hold_across_worker_counts() {
        let (sys, run) = job(31);
        let report = check_permutations(&sys, &run, &[1, 2, 5], &default_seeds(4));
        assert_eq!(report.orderings, 12);
        assert!(report.clean(), "mismatches: {:?}", report.mismatches);
    }

    #[test]
    fn batched_dispatch_survives_permutation() {
        // Multi-quantum batching is the path with the most per-domain
        // output per dispatch; permuted schedules must still be bit-exact.
        let sys = SystemConfig::paper_system(combo_suite()[1], 37);
        let target = PowerLimit::package_pin().guardbanded_target();
        let run = RunConfig::new(
            SimDuration::from_millis(1),
            ControlScheme::fixed_baseline(),
            target,
        )
        .with_batch_quanta(32);
        let report = check_permutations(&sys, &run, &[2], &default_seeds(8));
        assert!(report.clean(), "mismatches: {:?}", report.mismatches);
    }
}
