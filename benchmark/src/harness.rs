//! What every leg shares: the run context, panic containment, digests and
//! the exact counts of a job list.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use hcapp::outcome::RunOutcome;
use hcapp::resume::{outcome_digest, total_quanta};
use hcapp_cache::Hasher;

use crate::calib;
use crate::stats::{Ledger, Samples};
use crate::workload::{Job, Plan};

/// One benchmark process: the workload instance, the executor width, a
/// scratch directory inside the checkout, and what has been measured.
pub struct Ctx {
    pub plan: Plan,
    /// Worker threads for the sweep pool and the pooled executor:
    /// `available_parallelism()`.
    pub workers: usize,
    /// Scratch for cache entries, checkpoints and trace sinks.
    pub work_dir: PathBuf,
    pub ledger: Ledger,
    pub samples: Samples,
    /// End of the measured window. A sample taken under heavy steal is
    /// retaken only inside it, so retakes cannot stretch a run. `None`
    /// during the warm-up iteration, which runs every leg exactly once and
    /// retakes nothing: a fixed allocation history for the peak-memory
    /// reading.
    pub measure_until: Option<Instant>,
}

impl Ctx {
    /// Run one leg, counting a panic as `ops` failed operations.
    pub fn guard<T>(&mut self, what: &str, ops: usize, f: impl FnOnce(&mut Ctx) -> T) -> Option<T> {
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(v) => Some(v),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic")
                    .to_string();
                for _ in 0..ops.max(1) {
                    self.ledger.op(what, vec![format!("panicked: {msg}")]);
                }
                None
            }
        }
    }

    /// Check one job's outcome against every other reading of that job.
    pub fn outcome_op(
        &mut self,
        what: &str,
        job: &Job,
        out: &RunOutcome,
        mut problems: Vec<String>,
    ) {
        if let Some(p) = self
            .ledger
            .agree(&format!("digest.{}", job.label), &outcome_digest(out))
        {
            problems.push(p);
        }
        self.ledger.op(&format!("{what} {}", job.label), problems);
    }

    /// Record an exact count that must repeat; a change fails `what`.
    pub fn count(&mut self, what: &str, name: &str, value: u64) {
        let problem = self
            .ledger
            .agree(&format!("count.{name}"), &value.to_string());
        self.ledger.op(
            &format!("{what} count {name}"),
            problem.into_iter().collect(),
        );
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Timed work one sample accumulates at least: a leg shorter than this is
/// repeated and its sample is the mean per repetition, so scheduler jitter
/// on a millisecond-scale leg does not become the sample.
pub const MIN_SAMPLE_S: f64 = 0.3;

/// Share of the CPUs' time the hypervisor may steal during a sample
/// before it is retaken. Quiet stretches on the reference host stole 0-3%;
/// the stretches that tripled pooled run times stole 10-25%.
pub const STEAL_LIMIT: f64 = 0.05;

impl Ctx {
    /// One end-to-end sample: call `f` (which returns the seconds it timed)
    /// until the timed total reaches [`MIN_SAMPLE_S`], bracketed by the
    /// host-speed kernel. Returns the mean seconds per call, normalized to
    /// the reference speed, and raw.
    ///
    /// A sample during which the hypervisor stole more than
    /// [`STEAL_LIMIT`] of the CPUs' time is retaken while the run's retry
    /// window is open; the least-stolen attempt is kept.
    pub fn timed(&mut self, mut f: impl FnMut(&mut Ctx) -> f64) -> (f64, f64) {
        let mut best: Option<(f64, (f64, f64))> = None;
        loop {
            let start = (Instant::now(), calib::steal_ticks());
            let sample = self.timed_once(&mut f);
            let share = match (start.1, calib::steal_ticks()) {
                (Some((s0, cpus)), Some((s1, _))) => {
                    s1.saturating_sub(s0) as f64 / (secs(start.0) * calib::USER_HZ * cpus as f64)
                }
                _ => 0.0,
            };
            if best.is_none_or(|(b, _)| share < b) {
                best = Some((share, sample));
            }
            let retry_open = self.measure_until.is_some_and(|t| Instant::now() < t);
            if share <= STEAL_LIMIT || !retry_open {
                break;
            }
            self.samples.push("host.steal_retakes", 1.0);
        }
        let (share, sample) = best.expect("at least one attempt");
        self.samples.push("host.steal_share", share);
        sample
    }

    fn timed_once(&mut self, f: &mut impl FnMut(&mut Ctx) -> f64) -> (f64, f64) {
        // Calls are grouped into segments of at least CALIB_EVERY_S of
        // timed work, each bracketed by kernel readings; a segment is
        // normalized by the mean of its two brackets.
        let mut bracket = calib::speed_sample();
        let (mut total, mut norm, mut calls, mut segment) = (0.0, 0.0, 0u32, 0.0);
        let repeat = self.measure_until.is_some();
        while calls == 0 || (repeat && total < MIN_SAMPLE_S) {
            let dt = f(self);
            total += dt;
            segment += dt;
            calls += 1;
            if !repeat || segment >= calib::CALIB_EVERY_S || total >= MIN_SAMPLE_S {
                let next = calib::speed_sample();
                let speed = calib::REFERENCE_S / ((bracket + next) / 2.0);
                self.samples.push("host.speed", speed);
                norm += segment * speed;
                segment = 0.0;
                bracket = next;
            }
        }
        (norm / f64::from(calls), total / f64::from(calls))
    }

    /// Record a metric sample with its raw (unnormalized) value beside it.
    pub fn record(&mut self, name: &str, normalized: f64, raw: f64) {
        self.samples.push(name, normalized);
        self.samples.push(&format!("raw.{name}"), raw);
    }
}

/// 32-hex content digest of a text artifact (trace, report).
pub fn text_digest(text: &str) -> String {
    let mut h = Hasher::new();
    h.write_str(text);
    h.finish().to_hex()
}

/// Control quanta across a job list.
pub fn quanta(jobs: &[Job]) -> u64 {
    jobs.iter().map(|j| total_quanta(&j.sys, &j.run)).sum()
}

/// Domain-ticks across a job list.
pub fn domain_ticks(jobs: &[Job]) -> u64 {
    jobs.iter()
        .map(|j| j.run.duration.ticks(j.sys.tick) * j.sys.domains.len() as u64)
        .sum()
}

/// The job list as the `(SystemConfig, RunConfig)` pairs the executors take.
pub fn pairs(jobs: &[Job]) -> Vec<(hcapp::SystemConfig, hcapp::RunConfig)> {
    jobs.iter()
        .map(|j| (j.sys.clone(), j.run.clone()))
        .collect()
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
