//! End-to-end legs, tracing off. Every iteration runs each leg once, in a
//! fixed interleaved order, so slow phases of a shared host spread over
//! every metric instead of landing on one.
//!
//! Legs, on the workload's job list or its probe job:
//! * set-up: generate the job list and `Simulation::new` every job;
//! * cold / warm sweep: the job list through `run_all_cached` against a
//!   fresh cache directory (every job simulates and inserts), then again
//!   against the now-warm cache (every job is a hit);
//! * serial / pooled: the probe through `Simulation::run` and
//!   `run_parallel(workers)`;
//! * traced: the probe through `run_analyzed` with a ring tracer (the
//!   oracle of the resume leg);
//! * resume: the probe under `run_resumable` with a JSONL trace sink and
//!   checkpoints, killed at a fixed mid-run quantum, then resumed to
//!   completion; outcome, stitched trace and replayed report must equal
//!   the oracle's.

use std::fs;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hcapp::cache::{encode_outcome, run_all_cached, RunCache};
use hcapp::coordinator::Simulation;
use hcapp::resume::{run_resumable, ResumeEnd, ResumeOptions};
use hcapp::run_analyzed;
use hcapp_analyze::StreamAnalyzer;
use hcapp_telemetry::{jsonl, RingTracer, SharedTracer};

use crate::harness::{domain_ticks, pairs, quanta, secs, text_digest, Ctx};
use crate::workload;

/// Ring capacity for traced runs: above the largest workload's event count,
/// so nothing is dropped.
pub const RING_CAPACITY: usize = 1 << 21;
/// Header metadata of the oracle export and the stitched sink.
pub const TRACE_EXTRA: [(&str, &str); 1] = [("case", "bench")];

/// One end-to-end iteration.
pub fn iteration(ctx: &mut Ctx, iter: usize) {
    ctx.guard("setup", 1, setup_leg);
    let n = ctx.plan.jobs.len();
    ctx.guard("sweep", 2 * n, |c| sweep_leg(c, iter));
    ctx.guard("serial/pooled", 2, serial_pooled_leg);
    let oracle = ctx.guard("traced", 1, traced_leg);
    if let Some(oracle) = oracle {
        ctx.guard("resume", 1, |c| resume_leg(c, iter, &oracle));
    }
}

/// Time generating the job list and constructing every simulation (up to
/// the first quantum). The simulations are dropped after the clock stops.
pub fn setup_leg(ctx: &mut Ctx) {
    let (workload, seed) = (ctx.plan.workload, ctx.plan.seed);
    let (norm, raw) = ctx.timed(|_| {
        let t = Instant::now();
        let plan = workload::plan(workload, seed);
        let sims: Vec<Simulation> = plan
            .jobs
            .iter()
            .map(|j| Simulation::new(j.sys.clone(), j.run.clone()))
            .collect();
        let dt = secs(t);
        drop(sims);
        dt
    });
    ctx.record("setup_s", norm, raw);
}

fn sweep_leg(ctx: &mut Ctx, iter: usize) {
    let jobs = ctx.plan.jobs.clone();
    let n = jobs.len();
    let mut pass = 0usize;
    let (norm, raw) = ctx.timed(|c| {
        let dir = c.work_dir.join(format!("cache-{iter}-{pass}"));
        pass += 1;
        let _ = fs::remove_dir_all(&dir);
        let cache = RunCache::new(&dir);
        let input = pairs(&jobs);
        let t = Instant::now();
        let (outs, stats) = run_all_cached(input, c.workers, &cache);
        let dt = secs(t);
        let _ = fs::remove_dir_all(&dir);
        let mut entry_bytes = 0u64;
        let (mut faults, mut health) = (0u64, 0u64);
        for (job, out) in jobs.iter().zip(&outs) {
            let problems = if stats.misses == n {
                Vec::new()
            } else {
                vec![format!("cold pass expected {n} misses, got {stats:?}")]
            };
            c.outcome_op("cold", job, out, problems);
            entry_bytes += encode_outcome(out).len() as u64;
            faults += out.resilience.faults_injected;
            health += out.resilience.health_transitions;
        }
        c.count("cold", "cache.entry_bytes", entry_bytes);
        c.count("cold", "faults.injected", faults);
        c.count("cold", "health.transitions", health);
        dt
    });
    ctx.record("sweep_cold_s", norm, raw);
    ctx.count("cold", "quanta", quanta(&jobs));
    ctx.count("cold", "domain_ticks", domain_ticks(&jobs));

    // Fill the cache once, untimed, then time passes that only hit.
    let dir = ctx.work_dir.join(format!("cache-{iter}-warm"));
    let _ = fs::remove_dir_all(&dir);
    let cache = RunCache::new(&dir);
    let _ = run_all_cached(pairs(&jobs), ctx.workers, &cache);
    let (norm, raw) = ctx.timed(|c| {
        let input = pairs(&jobs);
        let t = Instant::now();
        let (outs, stats) = run_all_cached(input, c.workers, &cache);
        let dt = secs(t);
        for (job, out) in jobs.iter().zip(&outs) {
            let problems = if stats.hits == n {
                Vec::new()
            } else {
                vec![format!("warm pass expected {n} hits, got {stats:?}")]
            };
            c.outcome_op("warm", job, out, problems);
        }
        dt
    });
    ctx.record("sweep_warm_s", norm, raw);
    let _ = fs::remove_dir_all(&dir);
}

fn serial_pooled_leg(ctx: &mut Ctx) {
    let job = ctx.plan.probe_job().clone();
    let q = quanta(std::slice::from_ref(&job)) as f64;
    let (norm, raw) = ctx.timed(|c| {
        let sim = Simulation::new(job.sys.clone(), job.run.clone());
        let t = Instant::now();
        let out = sim.run();
        let dt = secs(t);
        c.outcome_op("serial", &job, &out, Vec::new());
        dt
    });
    ctx.record("quanta_per_s", q / norm, q / raw);
    let (norm, raw) = ctx.timed(|c| {
        let sim = Simulation::new(job.sys.clone(), job.run.clone());
        let t = Instant::now();
        let out = sim.run_parallel(c.workers);
        let dt = secs(t);
        c.outcome_op("pooled", &job, &out, Vec::new());
        dt
    });
    ctx.record("pooled_quanta_per_s", q / norm, q / raw);
}

/// The uninterrupted, traced run the resume leg must reproduce.
pub struct Oracle {
    pub trace: String,
    pub report: String,
    pub digest: String,
}

fn traced_leg(ctx: &mut Ctx) -> Oracle {
    let job = ctx.plan.probe_job().clone();
    let q = quanta(std::slice::from_ref(&job)) as f64;
    let mut oracle = None;
    let (norm, raw) = ctx.timed(|c| {
        let ring = Arc::new(Mutex::new(RingTracer::new(RING_CAPACITY)));
        let run = job.run.clone().with_tracer(ring.clone() as SharedTracer);
        let sys = job.sys.clone();
        let t = Instant::now();
        let (out, report) = run_analyzed(sys, run, None);
        let dt = secs(t);

        let mut ring = ring.lock().expect("tracer mutex is not poisoned");
        let dropped = ring.dropped();
        let events = ring.drain();
        let trace = jsonl::export(&events, &TRACE_EXTRA);
        let mut problems = Vec::new();
        if dropped > 0 {
            problems.push(format!("ring dropped {dropped} events"));
        }
        let report = report.to_json();
        problems.extend(c.ledger.agree("trace.digest", &text_digest(&trace)));
        problems.extend(c.ledger.agree("report.digest", &text_digest(&report)));
        c.outcome_op("traced", &job, &out, problems);
        c.count("traced", "trace.events", events.len() as u64);
        oracle = Some(Oracle {
            trace,
            report,
            digest: hcapp::resume::outcome_digest(&out),
        });
        dt
    });
    ctx.record("traced_quanta_per_s", q / norm, q / raw);
    oracle.expect("the traced leg runs at least once")
}

fn resume_leg(ctx: &mut Ctx, iter: usize, oracle: &Oracle) {
    let job = ctx.plan.probe_job().clone();
    let mut pass = 0usize;
    let (norm, raw) = ctx.timed(|c| {
        let dir = c.work_dir.join(format!("resume-{iter}-{pass}"));
        pass += 1;
        let _ = fs::remove_dir_all(&dir);
        let sink = dir.join("hcapp.trace");
        let ckpt = dir.join("hcapp.ckpt");
        let opts = ResumeOptions::new(&ckpt)
            .with_checkpoint_every(c.plan.checkpoint_every)
            .with_trace_sink(&sink)
            .with_trace_extra(TRACE_EXTRA[0].0, TRACE_EXTRA[0].1);
        let kill_opts = opts.clone().with_stop_at(c.plan.kill_at);
        let (sys_a, run_a) = (job.sys.clone(), job.run.clone());
        let (sys_b, run_b) = (job.sys.clone(), job.run.clone());

        let t = Instant::now();
        let killed = run_resumable(sys_a, run_a, &kill_opts).expect("kill run I/O");
        let ckpt_bytes = fs::metadata(&ckpt).map_or(0, |m| m.len());
        let resumed = run_resumable(sys_b, run_b, &opts).expect("resume run I/O");
        let dt = secs(t);

        let mut problems = Vec::new();
        if !matches!(killed.end, ResumeEnd::Stopped { .. }) {
            problems.push("kill run was never stopped".to_string());
        }
        if resumed.resumed_from.is_none() {
            problems.push("resume started fresh instead of from a checkpoint".to_string());
        }
        let stitched = fs::read_to_string(&sink).unwrap_or_default();
        if stitched != oracle.trace {
            problems.push("stitched trace differs from the oracle's".to_string());
        }
        let mut analyzer = StreamAnalyzer::new();
        match analyzer.consume_jsonl(&stitched) {
            Ok(()) if analyzer.report().to_json() == oracle.report => {}
            Ok(()) => problems.push("replayed report differs from the oracle's".to_string()),
            Err(e) => problems.push(format!("stitched trace does not replay: {e}")),
        }
        match resumed.end {
            ResumeEnd::Completed(out) => {
                if hcapp::resume::outcome_digest(&out) != oracle.digest {
                    problems.push("resumed outcome differs from the oracle's".to_string());
                }
                c.outcome_op("resume", &job, &out, problems);
            }
            ResumeEnd::Stopped { quantum } => {
                problems.push(format!("resume stopped at quantum {quantum}"));
                c.ledger.op(&format!("resume {}", job.label), problems);
            }
        }
        c.count("resume", "ckpt.kill_bytes", ckpt_bytes);
        c.count(
            "resume",
            "ckpt.kill_resume_written",
            killed.checkpoints_written + resumed.checkpoints_written,
        );
        let _ = fs::remove_dir_all(&dir);
        dt
    });
    ctx.record("resume_s", norm, raw);
}
