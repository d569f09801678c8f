//! The traced run: per-layer host time, taken from outside around each
//! layer's public calls. Every iteration repeats every leg; the reported
//! value of a timing is its median over iterations.
//!
//! Core layers come from the traced replica (`crate::replica`); coarse
//! layers are timed around their public entry points:
//! * run-level pool: `parallel::run_all` against each job run alone;
//! * chiplet pool: `run_parallel(workers)` against `Simulation::run`;
//! * cache: `job_key`, `encode_outcome`/`decode_outcome`,
//!   `RunCache::insert`/`lookup`;
//! * checkpoints: `Checkpoint::encode`, `CheckpointStore::save` and
//!   `latest_valid`, and `run_resumable` with and without a cadence;
//! * telemetry and analysis: `jsonl::event_line` and
//!   `StreamAnalyzer::consume_jsonl`.

use std::fs;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hcapp::cache::{decode_outcome, encode_outcome, job_key, run_all_cached, RunCache};
use hcapp::coordinator::Simulation;
use hcapp::outcome::RunOutcome;
use hcapp::resume::{config_fingerprint, outcome_digest, run_resumable, ResumeEnd, ResumeOptions};
use hcapp_analyze::StreamAnalyzer;
use hcapp_resume::CheckpointStore;
use hcapp_telemetry::{jsonl, RingTracer, SharedTracer};

use crate::e2e::{RING_CAPACITY, TRACE_EXTRA};
use crate::harness::{domain_ticks, pairs, quanta, secs, Ctx};
use crate::replica::{replay, traced_run, PassTimes, ReplayTimes};

/// Share of the traced wall time left unattributed above which the run is
/// flagged.
pub const UNATTRIBUTED_FLAG: f64 = 0.10;

/// One traced iteration.
pub fn iteration(ctx: &mut Ctx, iter: usize, clock_ns: f64) {
    let n = ctx.plan.jobs.len();
    let solo = ctx.guard("replica", 2 * n, |c| replica_leg(c, clock_ns));
    if let Some(solo) = solo {
        ctx.guard("sweep pool", n, |c| sweep_pool_leg(c, &solo.0, &solo.1));
        ctx.guard("cache", n, |c| cache_leg(c, iter, &solo.1));
    }
    ctx.guard("chiplet pool", 2, pool_leg);
    ctx.guard("checkpoint", 2, |c| checkpoint_leg(c, iter));
    ctx.guard("telemetry", 1, telemetry_leg);
}

/// Per job: the untraced run, the traced replica and the replay. Returns
/// each job's untraced wall time and outcome.
fn replica_leg(ctx: &mut Ctx, clock_ns: f64) -> (Vec<f64>, Vec<RunOutcome>) {
    let jobs = ctx.plan.jobs.clone();
    let mut pass = PassTimes::default();
    let mut rep = ReplayTimes::default();
    let mut solo = Vec::with_capacity(jobs.len());
    let mut outs = Vec::with_capacity(jobs.len());
    let (mut faults, mut health) = (0u64, 0u64);
    for job in &jobs {
        let sim = Simulation::new(job.sys.clone(), job.run.clone());
        let t = Instant::now();
        let out = sim.run();
        solo.push(secs(t));
        ctx.outcome_op("untraced", job, &out, Vec::new());

        let traced = traced_run(&job.sys, &job.run);
        let mut problems = Vec::new();
        if outcome_digest(&traced.outcome) != outcome_digest(&out) {
            problems.push("traced replica outcome differs from Simulation::run".to_string());
        }
        let r = replay(&traced.recording, job.sys.tick);
        if r.mismatches > 0 {
            problems.push(format!(
                "{} replayed values differ from the recording",
                r.mismatches
            ));
        }
        ctx.outcome_op("replica", job, &traced.outcome, problems);
        faults += traced.outcome.resilience.faults_injected;
        health += traced.outcome.resilience.health_transitions;
        add_pass(&mut pass, &traced.times);
        add_replay(&mut rep, &r);
        outs.push(out);
    }
    ctx.count("replica", "quanta", pass.quanta);
    ctx.count("replica", "domain_ticks", pass.domain_ticks);
    ctx.count("replica", "faults.injected", faults);
    ctx.count("replica", "health.transitions", health);
    let (q, dq) = (quanta(&jobs), domain_ticks(&jobs));
    if pass.quanta != q || pass.domain_ticks != dq {
        ctx.ledger.op(
            "replica work",
            vec![format!(
                "replica ran {}/{} quanta/domain-ticks, jobs hold {q}/{dq}",
                pass.quanta, pass.domain_ticks
            )],
        );
    }

    // Clock-corrected self time of each in-pass layer: every timed interval
    // carries one clock pair's overhead.
    let corr = |ns: u64, pairs: u64| (ns as f64 - pairs as f64 * clock_ns).max(0.0);
    let pid = corr(pass.global_pid_ns, pass.pid_steps);
    let vr = corr(pass.vr_schedule_ns, pass.quanta);
    let local = corr(pass.local_update_ns, pass.quanta);
    let domains = corr(pass.domains_ns, pass.quanta);
    let aggregate = corr(pass.aggregate_ns, pass.quanta);
    let faults_t = corr(pass.faults_ns, pass.fault_steps);
    let health_t = corr(pass.health_ns, pass.health_steps);
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let s = &mut ctx.samples;
    s.push("global_pid.ns_per_quantum", per(pid, pass.pid_steps));
    s.push("vr_schedule.ns_per_quantum", per(vr, pass.quanta));
    s.push(
        "local_update.ns_per_domain_quantum",
        per(local, pass.domain_quanta),
    );
    s.push("aggregate.ns_per_tick", per(aggregate, pass.ticks));
    s.push("faults.ns_per_quantum", per(faults_t, pass.quanta));
    s.push("health.ns_per_quantum", per(health_t, pass.quanta));
    s.push(
        "domains.ns_per_domain_tick",
        per(domains, pass.domain_ticks),
    );
    s.push(
        "pdn_delivery.ns_per_domain_tick",
        per(rep.delivery_ns as f64, rep.delivery_ticks),
    );
    for (i, name) in ["cpu_step", "gpu_step", "sha_step"].iter().enumerate() {
        s.push(
            &format!("{name}.ns_per_domain_tick"),
            per(rep.step_ns[i] as f64, rep.step_ticks[i]),
        );
    }
    let replayed = rep.delivery_ns as f64 + rep.step_ns.iter().sum::<u64>() as f64;
    s.push(
        "replay.coverage",
        if domains > 0.0 {
            replayed / domains
        } else {
            0.0
        },
    );
    let wall = pass.wall_ns as f64;
    let base: f64 = solo.iter().sum::<f64>() * 1e9;
    let attributed = pid + vr + local + domains + aggregate + faults_t + health_t;
    let unattributed = 1.0 - attributed / wall;
    s.push("replica.wall_s", wall / 1e9);
    s.push("replica.base_wall_s", base / 1e9);
    s.push("replica.overhead_share", (wall - base) / base);
    s.push("replica.unattributed_share", unattributed);
    s.push("clock.pair_ns", clock_ns);
    s.push("quanta", pass.quanta as f64);
    s.push("domain_ticks", pass.domain_ticks as f64);
    s.push("faults.injected", faults as f64);
    s.push("health.transitions", health as f64);
    (solo, outs)
}

fn add_pass(acc: &mut PassTimes, t: &PassTimes) {
    acc.global_pid_ns += t.global_pid_ns;
    acc.pid_steps += t.pid_steps;
    acc.faults_ns += t.faults_ns;
    acc.health_ns += t.health_ns;
    acc.fault_steps += t.fault_steps;
    acc.health_steps += t.health_steps;
    acc.vr_schedule_ns += t.vr_schedule_ns;
    acc.local_update_ns += t.local_update_ns;
    acc.domains_ns += t.domains_ns;
    acc.aggregate_ns += t.aggregate_ns;
    acc.wall_ns += t.wall_ns;
    acc.quanta += t.quanta;
    acc.ticks += t.ticks;
    acc.domain_ticks += t.domain_ticks;
    acc.domain_quanta += t.domain_quanta;
}

fn add_replay(acc: &mut ReplayTimes, r: &ReplayTimes) {
    acc.delivery_ns += r.delivery_ns;
    acc.delivery_ticks += r.delivery_ticks;
    for i in 0..3 {
        acc.step_ns[i] += r.step_ns[i];
        acc.step_ticks[i] += r.step_ticks[i];
    }
    acc.mismatches += r.mismatches;
}

/// The run-level `WorkerPool` over the whole job list, against each job
/// run alone.
fn sweep_pool_leg(ctx: &mut Ctx, solo: &[f64], outs: &[RunOutcome]) {
    let jobs = ctx.plan.jobs.clone();
    let input = pairs(&jobs);
    let t = Instant::now();
    let pooled = hcapp::parallel::run_all(input, ctx.workers);
    let dt = secs(t);
    for ((job, got), want) in jobs.iter().zip(&pooled).zip(outs) {
        let problems = if outcome_digest(got) == outcome_digest(want) {
            Vec::new()
        } else {
            vec!["pool outcome differs from the solo run".to_string()]
        };
        ctx.outcome_op("sweep pool", job, got, problems);
    }
    let total: f64 = solo.iter().sum();
    let longest = solo.iter().copied().fold(0.0, f64::max);
    ctx.samples
        .push("sweep_pool.efficiency", total / (ctx.workers as f64 * dt));
    ctx.samples.push("sweep_pool.longest_job_s", longest);
}

/// The chiplet-level pooled executor against the serial one, on the probe.
fn pool_leg(ctx: &mut Ctx) {
    let job = ctx.plan.probe_job().clone();
    let q = quanta(std::slice::from_ref(&job)) as f64;
    let sim = Simulation::new(job.sys.clone(), job.run.clone());
    let t = Instant::now();
    let serial = sim.run();
    let serial_s = secs(t);
    let sim = Simulation::new(job.sys.clone(), job.run.clone());
    let t = Instant::now();
    let pooled = sim.run_parallel(ctx.workers);
    let pooled_s = secs(t);
    ctx.outcome_op("pool serial", &job, &serial, Vec::new());
    ctx.outcome_op("pool pooled", &job, &pooled, Vec::new());
    let w = ctx.workers as f64;
    ctx.samples.push(
        "pool_overhead.ns_per_quantum",
        (pooled_s - serial_s / w) * 1e9 / q,
    );
    ctx.samples.push("pool_speedup", serial_s / pooled_s);
}

/// Each cache call on every job's outcome, then a warm `run_all_cached`
/// pass for the hit ratio.
fn cache_leg(ctx: &mut Ctx, iter: usize, outs: &[RunOutcome]) {
    let dir = ctx.work_dir.join(format!("layer-cache-{iter}"));
    let _ = fs::remove_dir_all(&dir);
    let cache = RunCache::new(&dir);
    let jobs = ctx.plan.jobs.clone();
    let n = jobs.len() as f64;
    let (mut key_s, mut enc_s, mut ins_s, mut look_s, mut dec_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let mut entry_bytes = 0u64;
    for (job, out) in jobs.iter().zip(outs) {
        let t = Instant::now();
        let key = job_key(&job.sys, &job.run);
        key_s += secs(t);
        let t = Instant::now();
        let body = encode_outcome(out);
        enc_s += secs(t);
        entry_bytes += body.len() as u64;
        let t = Instant::now();
        let decoded = decode_outcome(&body);
        dec_s += secs(t);
        let mut problems = Vec::new();
        match key {
            Some(key) => {
                let t = Instant::now();
                let stored = cache.insert(key, out);
                ins_s += secs(t);
                let t = Instant::now();
                let hit = cache.lookup(key);
                look_s += secs(t);
                if !stored {
                    problems.push("cache insert failed".to_string());
                }
                if hit.as_ref().map(outcome_digest) != Some(outcome_digest(out)) {
                    problems.push("cache lookup does not return the inserted outcome".to_string());
                }
            }
            None => problems.push("job is uncacheable".to_string()),
        }
        if decoded.as_ref().map(outcome_digest) != Some(outcome_digest(out)) {
            problems.push("decode(encode(outcome)) differs".to_string());
        }
        ctx.ledger.op(&format!("cache {}", job.label), problems);
    }
    let (_, stats) = run_all_cached(pairs(&jobs), ctx.workers, &cache);
    let _ = fs::remove_dir_all(&dir);
    let s = &mut ctx.samples;
    s.push("cache.job_key_us", key_s * 1e6 / n);
    s.push("cache.encode_us", enc_s * 1e6 / n);
    s.push("cache.decode_us", dec_s * 1e6 / n);
    s.push("cache.insert_us", ins_s * 1e6 / n);
    s.push("cache.lookup_us", look_s * 1e6 / n);
    s.push("cache.entry_bytes", entry_bytes as f64);
    s.push(
        "cache.hit_ratio",
        stats.hits as f64 / stats.total().max(1) as f64,
    );
    s.push("cache.corrupt", stats.corrupt as f64);
    ctx.count("cache", "cache.entry_bytes", entry_bytes);
}

/// The probe under `run_resumable` with the resume leg's cadence and with
/// none, then the store's load, encode and save on the last checkpoint.
fn checkpoint_leg(ctx: &mut Ctx, iter: usize) {
    let job = ctx.plan.probe_job().clone();
    let dir = ctx.work_dir.join(format!("layer-ckpt-{iter}"));
    let _ = fs::remove_dir_all(&dir);
    let ckpt = dir.join("hcapp.ckpt");

    let opts = ResumeOptions::new(&ckpt).with_checkpoint_every(u64::MAX);
    let (sys, run) = (job.sys.clone(), job.run.clone());
    let t = Instant::now();
    let plain = run_resumable(sys, run, &opts).expect("checkpoint-free run I/O");
    let plain_s = secs(t);

    let opts = ResumeOptions::new(&ckpt).with_checkpoint_every(ctx.plan.checkpoint_every);
    let (sys, run) = (job.sys.clone(), job.run.clone());
    let t = Instant::now();
    let with = run_resumable(sys, run, &opts).expect("checkpointing run I/O");
    let with_s = secs(t);
    for (what, summary) in [("ckpt plain", &plain), ("ckpt cadence", &with)] {
        match &summary.end {
            ResumeEnd::Completed(out) => ctx.outcome_op(what, &job, out, Vec::new()),
            ResumeEnd::Stopped { .. } => ctx.ledger.op(what, vec!["run stopped early".to_string()]),
        }
    }

    let store = CheckpointStore::new(&ckpt);
    let fingerprint = config_fingerprint(&job.sys, &job.run, false);
    let t = Instant::now();
    let loaded = store.latest_valid(&fingerprint);
    let load_s = secs(t);
    let Some((ck, _)) = loaded else {
        ctx.ledger.op(
            "ckpt load",
            vec!["no valid checkpoint after the run".to_string()],
        );
        return;
    };
    let t = Instant::now();
    let text = ck.encode();
    let encode_s = secs(t);
    let copy = CheckpointStore::new(dir.join("copy.ckpt"));
    let t = Instant::now();
    let saved = copy.save(&ck);
    let save_s = secs(t);
    let problems = match saved {
        Ok(()) if fs::read_to_string(copy.path()).ok().as_deref() == Some(text.as_str()) => {
            Vec::new()
        }
        Ok(()) => vec!["saved checkpoint differs from its encoding".to_string()],
        Err(e) => vec![format!("checkpoint save failed: {e}")],
    };
    ctx.ledger.op("ckpt save", problems);
    let _ = fs::remove_dir_all(&dir);

    let written = with.checkpoints_written;
    let s = &mut ctx.samples;
    s.push(
        "ckpt.per_checkpoint_ms",
        if written == 0 {
            0.0
        } else {
            (with_s - plain_s) * 1e3 / written as f64
        },
    );
    s.push("ckpt.encode_ms", encode_s * 1e3);
    s.push("ckpt.save_ms", save_s * 1e3);
    s.push("ckpt.load_ms", load_s * 1e3);
    s.push("ckpt.bytes", text.len() as f64);
    s.push("ckpt.written", written as f64);
    ctx.count("checkpoint", "ckpt.bytes", text.len() as u64);
    ctx.count("checkpoint", "ckpt.written", written);
}

/// The probe with a ring tracer, then its events through the JSONL encoder
/// and the stream analyzer.
fn telemetry_leg(ctx: &mut Ctx) {
    let job = ctx.plan.probe_job().clone();
    let ring = Arc::new(Mutex::new(RingTracer::new(RING_CAPACITY)));
    let run = job.run.clone().with_tracer(ring.clone() as SharedTracer);
    let out = Simulation::new(job.sys.clone(), run).run();
    let (events, dropped) = {
        let mut ring = ring.lock().expect("tracer mutex is not poisoned");
        let dropped = ring.dropped();
        (ring.drain(), dropped)
    };

    let mut text = jsonl::header(&TRACE_EXTRA);
    text.push('\n');
    let t = Instant::now();
    for e in &events {
        text.push_str(&jsonl::event_line(e));
        text.push('\n');
    }
    let encode_s = secs(t);

    let mut analyzer = StreamAnalyzer::new();
    let t = Instant::now();
    let replayed = analyzer.consume_jsonl(&text);
    let replay_s = secs(t);

    let mut problems: Vec<String> = ctx
        .ledger
        .agree("trace.digest", &crate::harness::text_digest(&text))
        .into_iter()
        .collect();
    if let Err(e) = replayed {
        problems.push(format!("trace does not replay: {e}"));
    }
    if analyzer.events() != events.len() as u64 {
        problems.push(format!(
            "analyzer saw {} of {} events",
            analyzer.events(),
            events.len()
        ));
    }
    ctx.outcome_op("telemetry", &job, &out, problems);
    let n = events.len().max(1) as f64;
    let s = &mut ctx.samples;
    s.push("trace.events", events.len() as f64);
    s.push("trace.bytes", text.len() as f64);
    s.push("trace.dropped", dropped as f64);
    s.push("trace.encode_ns_per_event", encode_s * 1e9 / n);
    s.push("analyze.replay_ns_per_event", replay_s * 1e9 / n);
    ctx.count("telemetry", "trace.events", events.len() as u64);
    ctx.count("telemetry", "trace.bytes", text.len() as u64);
}
