//! Chaos-soak study: crash-safe resume equivalence across the scenario
//! matrix.
//!
//! Every cell runs one scenario twice: once uninterrupted (the oracle) and
//! once as a checkpointing run that is killed at injector-chosen quanta and
//! resumed from its latest `hcapp.ckpt`. The stitched run must reproduce
//! the oracle **bit-exactly** — outcome encoding, JSONL trace stream and
//! replayed `hcapp.report` — and its over-budget episodes must respect the
//! same reaction bound the fault campaign enforces. The matrix crosses
//! fault plans with executors (serial, pooled, pooled + adversarial
//! schedule permutation) so the seams are soaked everywhere determinism is
//! claimed.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use hcapp::cache::encode_outcome;
use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::resume::{outcome_digest, run_resumable, total_quanta, ResumeEnd, ResumeOptions};
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp::DegradedConfig;
use hcapp_analyze::StreamAnalyzer;
use hcapp_faults::FaultPlan;
use hcapp_metrics::over_cap;
use hcapp_sim_core::report::Table;
use hcapp_sim_core::rng::DeterministicRng;
use hcapp_sim_core::time::SimDuration;
use hcapp_telemetry::{jsonl, RingTracer, SharedTracer};
use hcapp_workloads::combos::combo_by_name;

use crate::config::ExperimentConfig;

/// Worst-case slew-down stretch from a `vr_slew_derate` fault
/// (1 / `MIN_SLEW_DERATE`).
const SLEW_STRETCH: u32 = 4;

/// RNG stream id for kill-quantum selection, decorrelated per cell.
const KILL_STREAM: u64 = 0x5041_6b69_6c6c; // "PAkill"

/// How a cell executes the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The serial coordinator.
    Serial,
    /// The pooled executor with this many workers.
    Pooled(usize),
    /// Pooled under an adversarially permuted schedule (seeded).
    Permuted(usize, u64),
}

impl Executor {
    fn label(self) -> String {
        match self {
            Executor::Serial => "serial".to_string(),
            Executor::Pooled(n) => format!("pooled({n})"),
            Executor::Permuted(n, s) => format!("permuted({n},seed {s})"),
        }
    }

    fn apply(self, opts: ResumeOptions) -> ResumeOptions {
        match self {
            Executor::Serial => opts,
            Executor::Pooled(n) => opts.with_workers(n),
            Executor::Permuted(n, s) => opts.with_workers(n).with_permute_seed(s),
        }
    }
}

/// One cell's soak verdict.
#[derive(Debug, Clone)]
pub struct SoakRow {
    /// Fault-plan preset name (`none` for a clean run).
    pub plan: String,
    /// Execution strategy.
    pub executor: Executor,
    /// Checkpoint cadence in control quanta.
    pub every: u64,
    /// Quanta the run was killed at (sorted).
    pub kills: Vec<u64>,
    /// Checkpoints written across all links.
    pub checkpoints: u64,
    /// 32-hex digest of the stitched outcome.
    pub digest: String,
    /// Outcome + trace + report all byte-identical to the oracle.
    pub identical: bool,
    /// Longest over-budget excursion of the stitched run.
    pub longest_over: SimDuration,
    /// The reaction bound the excursion must respect.
    pub bound: SimDuration,
}

impl SoakRow {
    /// Whether the stitched run respects the reaction bound.
    pub fn within_bound(&self) -> bool {
        self.longest_over <= self.bound
    }
}

/// The scenario matrix: plans × executors, two kills per cell.
pub fn compute(cfg: &ExperimentConfig) -> Vec<SoakRow> {
    let cells: [(&str, Executor, u64); 6] = [
        ("none", Executor::Serial, 32),
        ("quiet", Executor::Pooled(2), 64),
        ("moderate", Executor::Serial, 64),
        ("moderate", Executor::Permuted(3, 9), 48),
        ("severe", Executor::Pooled(2), 16),
        ("severe", Executor::Permuted(2, 5), 64),
    ];
    cells
        .iter()
        .map(|&(plan, executor, every)| soak_cell(cfg, plan, executor, every, 2))
        .collect()
}

/// Run one cell: oracle, kill chain, bit-identity checks.
fn soak_cell(
    cfg: &ExperimentConfig,
    plan: &str,
    executor: Executor,
    every: u64,
    kills: u64,
) -> SoakRow {
    let limit = PowerLimit::package_pin();
    let combo = combo_by_name("Hi-Hi").expect("known combo");
    let sys = SystemConfig::paper_system(combo, cfg.seed);
    let mut run = RunConfig::new(
        cfg.duration,
        ControlScheme::Hcapp,
        limit.guardbanded_target(),
    )
    .with_trace();
    if plan != "none" {
        run = run.with_faults(FaultPlan::preset(plan, cfg.seed).expect("matrix presets are valid"));
    }

    // Injector-chosen kill quanta, decorrelated per cell.
    let total = total_quanta(&sys, &run);
    let mut rng = DeterministicRng::derive(cfg.seed ^ every, KILL_STREAM);
    let mut kill_quanta = BTreeSet::new();
    while (kill_quanta.len() as u64) < kills.min(total - 1) {
        kill_quanta.insert(1 + rng.below(total - 1));
    }

    // Oracle.
    let ring = Arc::new(Mutex::new(RingTracer::new(1 << 20)));
    let mut oracle_run = run.clone();
    oracle_run.tracer = Some(ring.clone() as SharedTracer);
    let want = Simulation::new(sys.clone(), oracle_run).run();
    let events = ring
        .lock()
        .expect("invariant: tracer mutex never poisoned")
        .drain();
    let want_trace = jsonl::export(&events, &[("case", "soak"), ("plan", plan)]);

    // Kill chain in a per-cell scratch directory.
    let dir = scratch_dir(cfg, plan, executor, every);
    let opts = executor.apply(
        ResumeOptions::new(dir.join("hcapp.ckpt"))
            .with_checkpoint_every(every)
            .with_trace_sink(dir.join("hcapp.trace"))
            .with_trace_extra("case", "soak")
            .with_trace_extra("plan", plan),
    );
    let mut checkpoints = 0u64;
    for &q in &kill_quanta {
        let link = run_resumable(sys.clone(), run.clone(), &opts.clone().with_stop_at(q))
            .expect("kill link failed");
        checkpoints += link.checkpoints_written;
        assert!(
            matches!(link.end, ResumeEnd::Stopped { .. }),
            "kill at {q} was never reached"
        );
    }
    let fin = run_resumable(sys, run, &opts).expect("final link failed");
    checkpoints += fin.checkpoints_written;
    let got = match fin.end {
        ResumeEnd::Completed(out) => out,
        ResumeEnd::Stopped { quantum } => panic!("final link stopped at {quantum}"),
    };
    let got_trace = fs::read_to_string(dir.join("hcapp.trace")).expect("stitched trace readable");
    let _ = fs::remove_dir_all(&dir);

    let identical = encode_outcome(&got) == encode_outcome(&want)
        && got_trace == want_trace
        && replay_report(&got_trace) == replay_report(&want_trace);
    let over = over_cap(
        got.trace.as_ref().expect("soak cells always record a trace"),
        limit.budget.value(),
    );
    let period = ControlScheme::Hcapp
        .control_period()
        .expect("HCAPP is dynamic");
    SoakRow {
        plan: plan.to_string(),
        executor,
        every,
        kills: kill_quanta.into_iter().collect(),
        checkpoints,
        digest: outcome_digest(&got),
        identical,
        longest_over: over.longest,
        bound: period * u64::from(DegradedConfig::default().reaction_quanta() * SLEW_STRETCH),
    }
}

fn replay_report(text: &str) -> String {
    let mut a = StreamAnalyzer::new();
    a.consume_jsonl(text).expect("stitched trace replays");
    a.report().to_json()
}

fn scratch_dir(cfg: &ExperimentConfig, plan: &str, executor: Executor, every: u64) -> PathBuf {
    let dir = cfg.out_dir.join(format!(
        "soak-scratch/{plan}-{}-{every}",
        executor.label().replace([',', '(', ')', ' '], "_")
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create soak scratch dir");
    dir
}

/// Execute, render and write CSV.
pub fn run(cfg: &ExperimentConfig) -> Table {
    let rows = compute(cfg);
    let mut t = Table::new(
        format!(
            "Chaos soak: kill/resume equivalence, seed {}, Hi-Hi, {} per cell",
            cfg.seed, cfg.duration
        ),
        &[
            "plan",
            "executor",
            "cadence",
            "killed at",
            "ckpts",
            "digest",
            "identical?",
            "longest over",
            "bound",
            "bounded?",
        ],
    );
    for r in &rows {
        t.add_row(vec![
            r.plan.clone(),
            r.executor.label(),
            r.every.to_string(),
            r.kills
                .iter()
                .map(|q| q.to_string())
                .collect::<Vec<_>>()
                .join(","),
            r.checkpoints.to_string(),
            r.digest.clone(),
            if r.identical { "yes" } else { "NO" }.into(),
            format!("{}", r.longest_over),
            format!("{}", r.bound),
            if r.within_bound() { "yes" } else { "NO" }.into(),
        ]);
    }
    t.write_csv(cfg.csv_path("soak")).expect("write csv");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_is_bit_identical_and_bounded() {
        let cfg = ExperimentConfig::quick(1);
        let rows = compute(&cfg);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.kills.len(), 2, "{}/{}", r.plan, r.executor.label());
            assert!(
                r.identical,
                "{} on {} (cadence {}): stitched run diverged from the oracle",
                r.plan,
                r.executor.label(),
                r.every
            );
            assert!(
                r.within_bound(),
                "{} on {}: longest over-budget {} exceeds bound {}",
                r.plan,
                r.executor.label(),
                r.longest_over,
                r.bound
            );
        }
        // Distinct plans must actually change the run.
        assert_ne!(rows[0].digest, rows[2].digest);
    }
}
