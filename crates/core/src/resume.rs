//! Crash-safe checkpoint/resume driver: `run_resumable`.
//!
//! The coordinator's [`crate::coordinator`] loop is reified as a stepwise
//! `LoopDriver`; this module drives it batch by batch, persisting an
//! `hcapp.ckpt` snapshot ([`hcapp_resume::Checkpoint`]) every
//! `checkpoint_every` control quanta. The correctness contract, pinned by
//! the kill-matrix tests and the `scripts/check.sh` soak smoke step:
//!
//! > A run killed at **any** quantum and resumed from its last valid
//! > checkpoint produces a byte-identical [`RunOutcome`], trace stream and
//! > `hcapp.report` to the run that was never interrupted — across the
//! > serial, pooled and batched executors, under any valid fault plan.
//!
//! Why it holds (DESIGN §6h has the full argument):
//!
//! * Every piece of mutable run state lives behind a
//!   [`hcapp_sim_core::state::Snapshot`] impl that round-trips f64s as
//!   IEEE-754 bit patterns, so a restore is *exact*, not approximate.
//! * Checkpoints are only taken at batch boundaries, where the per-quantum
//!   event buffer is empty (asserted) and no scratch state is live.
//! * Stateless collaborators (the fault injector, software policies, the
//!   reply permuter's per-dispatch derivation) are pure functions of
//!   configuration and simulated time, which the checkpoint pins via its
//!   config fingerprint instead of serializing them.
//!
//! The trace seam: with a sink attached, the driver drains the in-memory
//! ring into the JSONL file immediately *before* each checkpoint and
//! records the file length in the snapshot. On resume the sink is truncated
//! back to that offset, erasing anything the killed process appended after
//! its last checkpoint; the stitched file is byte-identical to an
//! uninterrupted `jsonl::export`.

use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use hcapp_cache::Hasher;
use hcapp_resume::{Checkpoint, CheckpointStore};
use hcapp_sim_core::state::{Snapshot, StateReader, StateWriter};
use hcapp_telemetry::jsonl;
use hcapp_telemetry::tracer::{RingTracer, SharedTracer};

use crate::coordinator::{run_loop, DomainExecutor, LoopDriver, RunConfig, Simulation};
use crate::outcome::RunOutcome;
use crate::parallel::{with_pooled_executor, ReplyPermuter};
use crate::coordinator::SerialExecutor;
use crate::system::SystemConfig;

/// How a resumable run ended.
#[derive(Debug, Clone)]
pub enum ResumeEnd {
    /// The run reached its configured duration; the outcome is final.
    Completed(RunOutcome),
    /// The run was stopped at the given completed-quantum count by
    /// [`ResumeOptions::stop_at`] — the in-process stand-in for SIGKILL.
    /// Nothing was flushed past the last checkpoint, exactly as if the
    /// process had died.
    Stopped {
        /// Control quanta completed when the run stopped.
        quantum: u64,
    },
}

/// What [`run_resumable`] did, beyond the outcome itself.
#[derive(Debug, Clone)]
pub struct ResumeSummary {
    /// How the run ended.
    pub end: ResumeEnd,
    /// `Some(q)` when the run restored a checkpoint taken at quantum `q`;
    /// `None` when it started fresh.
    pub resumed_from: Option<u64>,
    /// Checkpoints written during this invocation.
    pub checkpoints_written: u64,
}

/// Configuration of the checkpoint/resume driver.
#[derive(Debug, Clone)]
pub struct ResumeOptions {
    /// Primary checkpoint path (`hcapp.ckpt`; the previous snapshot rotates
    /// to `<path>.1`).
    pub ckpt_path: PathBuf,
    /// Snapshot cadence in control quanta (clamped to at least 1).
    pub checkpoint_every: u64,
    /// Worker threads for the pooled executor; 0 runs serially.
    pub workers: usize,
    /// Adversarial reply-order seed for the pooled executor (the simsan
    /// permutation); `None` merges replies in arrival order.
    pub permute_seed: Option<u64>,
    /// Stop (without flushing) once this many quanta have completed — the
    /// deterministic in-process equivalent of `kill -9`.
    pub stop_at: Option<u64>,
    /// JSONL trace sink stitched across kills. When set, the driver owns a
    /// [`RingTracer`] and the run configuration must not carry a tracer of
    /// its own.
    pub trace_sink: Option<PathBuf>,
    /// Capacity of the owned ring tracer (events buffered between
    /// checkpoints).
    pub trace_capacity: usize,
    /// Extra `(key, value)` metadata for the trace header line.
    pub trace_extra: Vec<(String, String)>,
}

impl ResumeOptions {
    /// Defaults: serial execution, checkpoint every 64 quanta, no trace
    /// sink, no stop.
    pub fn new(ckpt_path: impl Into<PathBuf>) -> Self {
        ResumeOptions {
            ckpt_path: ckpt_path.into(),
            checkpoint_every: 64,
            workers: 0,
            permute_seed: None,
            stop_at: None,
            trace_sink: None,
            trace_capacity: 1 << 20,
            trace_extra: Vec::new(),
        }
    }

    /// Set the snapshot cadence in quanta.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Use the pooled executor with this many workers (0 = serial).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Use the pooled executor with adversarially permuted reply order.
    pub fn with_permute_seed(mut self, seed: u64) -> Self {
        self.permute_seed = Some(seed);
        self
    }

    /// Stop without flushing after this many quanta (simulated kill).
    pub fn with_stop_at(mut self, quantum: u64) -> Self {
        self.stop_at = Some(quantum);
        self
    }

    /// Stitch a JSONL trace into the given file across kills.
    pub fn with_trace_sink(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_sink = Some(path.into());
        self
    }

    /// Add a `(key, value)` pair to the trace header line.
    pub fn with_trace_extra(mut self, key: &str, value: &str) -> Self {
        self.trace_extra.push((key.to_string(), value.to_string()));
        self
    }
}

/// 32-hex fingerprint of everything that determines a run's results (and
/// its trace stream). Two invocations with equal fingerprints are the same
/// physical run, so a checkpoint from one may seed the other. Execution
/// strategy (`batch_quanta`, worker count, reply permutation) is excluded —
/// the executors are bit-identical by construction — but whether a trace
/// sink is attached is included, because tracing changes what must be
/// stitched on resume.
pub fn config_fingerprint(sys: &SystemConfig, run: &RunConfig, traced: bool) -> String {
    let mut h = Hasher::new();
    h.write_str(hcapp_resume::SCHEMA);
    h.write_str(&format!("{sys:?}"));
    h.write_u64(run.duration.as_nanos());
    h.write_str(&format!("{:?}", run.scheme));
    h.write_f64(run.power_target.value());
    h.write_str(&format!("{:?}", run.retargets));
    h.write_str(&format!("{:?}", run.track_windows));
    h.write_bool(run.record_trace);
    h.write_bool(run.record_voltage_trace);
    h.write_u64(run.trace_interval.as_nanos());
    h.write_str(&format!("{:?}", run.software));
    h.write_str(&format!("{:?}", run.faults));
    h.write_str(&format!("{:?}", run.degraded));
    h.write_bool(traced);
    h.finish().to_hex()
}

/// Run a simulation with periodic crash-safe checkpoints, resuming from the
/// newest valid `hcapp.ckpt` if one matches the configuration.
///
/// The run configuration must not carry its own tracer or profiler — the
/// driver owns the trace hook (see [`ResumeOptions::trace_sink`]) and a
/// profiler's wall-clock samples cannot survive a kill.
///
/// # Panics
/// Panics if `run.tracer` or `run.profiler` is set, or on invalid
/// system/run configuration (the same validation as [`Simulation::new`]).
///
/// # Errors
/// Propagates I/O failures from the checkpoint store or the trace sink.
pub fn run_resumable(
    sys: SystemConfig,
    run: RunConfig,
    opts: &ResumeOptions,
) -> io::Result<ResumeSummary> {
    assert!(
        run.tracer.is_none(),
        "run_resumable owns the trace hook; use ResumeOptions::trace_sink"
    );
    assert!(
        run.profiler.is_none(),
        "run_resumable cannot checkpoint a profiler's wall-clock samples"
    );
    let fingerprint = config_fingerprint(&sys, &run, opts.trace_sink.is_some());
    let store = CheckpointStore::new(&opts.ckpt_path);
    let candidate = store.latest_valid(&fingerprint).map(|(ck, _)| ck);

    // The restore path mutates a freshly-built driver; if a section fails
    // to apply (a "cannot happen" given the checksum and fingerprint both
    // matched, but robustness demands the branch), the partially-restored
    // driver is unusable. Clear the store and retry from scratch — the
    // recursion terminates because the second call finds no candidate.
    match run_once(&sys, &run, opts, &fingerprint, &store, candidate)? {
        Some(summary) => Ok(summary),
        None => {
            store.clear()?;
            run_resumable(sys, run, opts)
        }
    }
}

/// One attempt: `Ok(None)` means the candidate checkpoint failed to apply
/// and the caller should fall back to a fresh start.
fn run_once(
    sys: &SystemConfig,
    run: &RunConfig,
    opts: &ResumeOptions,
    fingerprint: &str,
    store: &CheckpointStore,
    candidate: Option<Checkpoint>,
) -> io::Result<Option<ResumeSummary>> {
    // The driver owns the concrete ring; the run config gets the same ring
    // behind the `SharedTracer` unsize coercion.
    let ring: Option<Arc<Mutex<RingTracer>>> = opts
        .trace_sink
        .as_ref()
        .map(|_| Arc::new(Mutex::new(RingTracer::new(opts.trace_capacity.max(1)))));
    let mut run = run.clone();
    if let Some(ring) = ring.as_ref() {
        let shared: SharedTracer = ring.clone();
        run.tracer = Some(shared);
    }
    let sim = Simulation::new(sys.clone(), run);
    let Simulation {
        sys,
        run,
        domains,
        global_ctl,
        vr,
        sensor,
        policy,
    } = sim;

    let ctx = DriveCtx {
        opts,
        fingerprint,
        store,
        ring: ring.as_deref(),
    };
    if opts.workers == 0 {
        let executor = SerialExecutor { domains };
        let driver = LoopDriver::new(sys, run, global_ctl, vr, sensor, policy, executor);
        drive(driver, candidate, &ctx)
    } else {
        let permuter = opts.permute_seed.map(ReplyPermuter::new);
        with_pooled_executor(domains, opts.workers, permuter, move |executor| {
            let driver = LoopDriver::new(sys, run, global_ctl, vr, sensor, policy, executor);
            drive(driver, candidate, &ctx)
        })
    }
}

/// Shared context threaded through the generic driver loop.
struct DriveCtx<'a> {
    opts: &'a ResumeOptions,
    fingerprint: &'a str,
    store: &'a CheckpointStore,
    ring: Option<&'a Mutex<RingTracer>>,
}

/// The stepwise loop: restore (or initialize the trace sink), then
/// `step_batch` to completion, checkpointing on cadence. Returns `Ok(None)`
/// when the candidate checkpoint failed to apply.
fn drive<E: DomainExecutor>(
    mut driver: LoopDriver<E>,
    candidate: Option<Checkpoint>,
    ctx: &DriveCtx<'_>,
) -> io::Result<Option<ResumeSummary>> {
    let opts = ctx.opts;
    let every = opts.checkpoint_every.max(1);
    let mut resumed_from = None;
    // Byte length of the trace sink at the last durable point; `None` when
    // no sink is attached.
    let mut sink_len: Option<u64> = None;

    if let Some(ck) = candidate {
        if restore(&mut driver, &ck, ctx).is_none() {
            return Ok(None);
        }
        if ctx.ring.is_some() {
            // Erase whatever the killed process appended past its last
            // checkpoint; those quanta will be re-executed bit-exactly.
            truncate_sink(opts, ck.trace_offset)?;
            sink_len = Some(ck.trace_offset);
        }
        resumed_from = Some(ck.quantum);
    } else if let Some(path) = opts.trace_sink.as_ref() {
        // Fresh start: (re)create the sink with just the header line.
        let extra: Vec<(&str, &str)> = opts
            .trace_extra
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        let mut text = jsonl::header(&extra);
        text.push('\n');
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir)?;
            }
        }
        fs::write(path, &text)?;
        sink_len = Some(text.len() as u64);
    }

    let mut checkpoints_written = 0u64;
    let mut next_mark = next_multiple(driver.quanta_completed(), every);
    while !driver.is_done() {
        driver.step_batch();
        let q = driver.quanta_completed();
        if q >= next_mark && !driver.is_done() {
            sink_len = flush_ring(ctx, opts, sink_len)?;
            save_checkpoint(&mut driver, ctx, sink_len)?;
            checkpoints_written += 1;
            next_mark = next_multiple(q, every);
        }
        if let Some(stop) = opts.stop_at {
            if q >= stop {
                // Simulated SIGKILL: drop everything on the floor. Events
                // still buffered in the ring are lost, exactly as a dead
                // process would lose them.
                return Ok(Some(ResumeSummary {
                    end: ResumeEnd::Stopped { quantum: q },
                    resumed_from,
                    checkpoints_written,
                }));
            }
        }
    }

    // Completion: flush the tail of the trace, then fold the outcome.
    flush_ring(ctx, opts, sink_len)?;
    let outcome = driver.finish();
    Ok(Some(ResumeSummary {
        end: ResumeEnd::Completed(outcome),
        resumed_from,
        checkpoints_written,
    }))
}

/// Smallest multiple of `every` strictly greater than `q`.
fn next_multiple(q: u64, every: u64) -> u64 {
    (q / every + 1) * every
}

/// Apply a checkpoint to a freshly-built driver (coordinator sections plus
/// the ring tracer's counters). `None` leaves the driver partially mutated;
/// the caller discards it.
fn restore<E: DomainExecutor>(
    driver: &mut LoopDriver<E>,
    ck: &Checkpoint,
    ctx: &DriveCtx<'_>,
) -> Option<()> {
    driver.restore_sections(|name| ck.section(name))?;
    match ctx.ring {
        Some(ring) => {
            let mut r = StateReader::new(ck.section("tracer")?);
            let mut ring = ring.lock().expect("invariant: tracer mutex never poisoned");
            ring.load_state(&mut r)?;
            r.finished()
        }
        None => match ck.section("tracer") {
            Some(_) => None,
            None => Some(()),
        },
    }
}

/// Truncate the trace sink back to the checkpoint's recorded offset.
/// A missing or too-short sink is an I/O error surfaced to the caller —
/// the checkpoint recorded bytes that no longer exist, so silently
/// restarting the trace would violate the stitching contract.
fn truncate_sink(opts: &ResumeOptions, offset: u64) -> io::Result<()> {
    let path = opts
        .trace_sink
        .as_ref()
        .expect("truncate_sink called without a sink");
    let f = OpenOptions::new().write(true).open(path)?;
    if f.metadata()?.len() < offset {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "trace sink {} is shorter than the checkpoint's {offset}-byte offset",
                path.display()
            ),
        ));
    }
    f.set_len(offset)
}

/// Drain the ring into the sink (append mode) and return the new durable
/// byte length. A no-op without a sink.
fn flush_ring(
    ctx: &DriveCtx<'_>,
    opts: &ResumeOptions,
    sink_len: Option<u64>,
) -> io::Result<Option<u64>> {
    let Some(ring) = ctx.ring else {
        return Ok(sink_len);
    };
    let path = opts
        .trace_sink
        .as_ref()
        .expect("ring without a sink path");
    let events = ring
        .lock()
        .expect("invariant: tracer mutex never poisoned")
        .drain();
    let mut len = sink_len.expect("sink length tracked from initialization");
    if !events.is_empty() {
        let mut text = String::new();
        for e in &events {
            text.push_str(&jsonl::event_line(e));
            text.push('\n');
        }
        let mut f = OpenOptions::new().append(true).open(path)?;
        f.write_all(text.as_bytes())?;
        f.flush()?;
        len += text.len() as u64;
    }
    Ok(Some(len))
}

/// Snapshot the driver (and the ring's counters) into the store.
fn save_checkpoint<E: DomainExecutor>(
    driver: &mut LoopDriver<E>,
    ctx: &DriveCtx<'_>,
    sink_len: Option<u64>,
) -> io::Result<()> {
    let mut ck = Checkpoint::new(
        ctx.fingerprint,
        driver.quanta_completed(),
        sink_len.unwrap_or(0),
    );
    for (name, payload) in driver.save_sections() {
        ck.add_section(&name, payload);
    }
    if let Some(ring) = ctx.ring {
        let mut w = StateWriter::new();
        ring.lock()
            .expect("invariant: tracer mutex never poisoned")
            .save_state(&mut w);
        ck.add_section("tracer", w.finish());
    }
    ctx.store.save(&ck)
}

/// Total control quanta the configuration will execute. Kill quanta must be
/// strictly below this for a [`ResumeOptions::stop_at`] to land mid-run.
pub fn total_quanta(sys: &SystemConfig, run: &RunConfig) -> u64 {
    let period = run
        .scheme
        .control_period()
        .unwrap_or(crate::coordinator::FIXED_QUANTUM);
    let quantum_ticks = period.ticks(sys.tick).max(1);
    let total_ticks = run.duration.ticks(sys.tick);
    total_ticks.div_ceil(quantum_ticks)
}

/// 32-hex digest of [`crate::cache::encode_outcome`] — a compact identity
/// for "these two runs produced bit-identical results", printable by the
/// soak harness and comparable across processes.
pub fn outcome_digest(out: &RunOutcome) -> String {
    let mut h = Hasher::new();
    h.write_str(&crate::cache::encode_outcome(out));
    h.finish().to_hex()
}

/// Reference oracle: the same configuration run uninterrupted (serial,
/// untraced path goes through the plain coordinator; a traced oracle
/// collects into a ring and exports, matching the stitched sink bytes).
pub fn run_uninterrupted(sys: SystemConfig, run: RunConfig) -> RunOutcome {
    let sim = Simulation::new(sys, run);
    let Simulation {
        sys,
        run,
        domains,
        global_ctl,
        vr,
        sensor,
        policy,
    } = sim;
    let executor = SerialExecutor { domains };
    run_loop(sys, run, global_ctl, vr, sensor, policy, executor)
}
