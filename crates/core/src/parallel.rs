//! Parallel execution.
//!
//! Two levels of parallelism, both deterministic, both built on the standard
//! library only (`std::sync::mpsc` channels, `std::sync::Mutex`/`Condvar`)
//! so the workspace stays hermetic — simlint rule L4 forbids registry
//! dependencies, and rule L3 plus the determinism regression tests in this
//! module keep the parallel paths bit-identical to the serial ones:
//!
//! 1. **Run-level** ([`run_all`] / [`WorkerPool`]) — the experiment sweeps
//!    (8 combos × 4 schemes × limits) are embarrassingly parallel: a
//!    mutex-guarded work queue feeds system/run configs to worker threads;
//!    results land in input order. [`WorkerPool`] keeps the threads alive
//!    between sweeps, so an experiment campaign pays thread spawn/join once
//!    instead of once per figure; [`shared_pool`] hands out one
//!    process-wide pool for exactly that use.
//!
//! 2. **Chiplet-level** ([`Simulation::run_parallel`]) — inside one run,
//!    domains are independent within a control quantum (the global voltage
//!    schedule is fixed at the boundary), so each worker thread owns a
//!    subset of domains and advances them per dispatched *batch* of quanta.
//!    Two protocol choices keep channel traffic off the critical path:
//!    the coordinator ships multi-quantum batches whenever the run has no
//!    per-quantum feedback (see [`crate::coordinator::BATCH_QUANTA`]), and
//!    each worker sends **one reply per batch** covering all the domains it
//!    owns — so a quantum costs `workers` receives, not `n_domains`, which
//!    is what used to make the 1 µs HCAPP quantum lose to serial on small
//!    systems. Per-domain power vectors are still merged *in domain
//!    order*, making the result bit-identical to the serial executor — an
//!    integration test asserts this.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

use hcapp_sim_core::time::SimDuration;
use hcapp_telemetry::TraceEvent;

use crate::coordinator::{
    decode_domain_state, encode_domain_state, run_loop, DomainExecutor, QuantumCtl, QuantumSpec,
    RunConfig, Simulation,
};
use crate::outcome::RunOutcome;
use crate::software::ComponentKind;
use crate::system::{Domain, SystemConfig};

/// One queued run-level job: input index, its configs, and the channel its
/// result goes back on (each [`WorkerPool::run_all`] call brings its own).
type PoolJob = (
    usize,
    SystemConfig,
    RunConfig,
    Sender<(usize, RunOutcome)>,
);

/// Shared state between a [`WorkerPool`]'s owner and its threads.
struct PoolShared {
    /// Pending jobs plus the shutdown flag, under one lock.
    queue: Mutex<(VecDeque<PoolJob>, bool)>,
    /// Signaled when jobs arrive or shutdown is requested.
    ready: Condvar,
}

/// A persistent run-level worker pool.
///
/// Threads are spawned once and then parked on a condvar between
/// submissions, so a campaign of sweeps (the figure binaries, `hcapp
/// sweep`, the scaling study) reuses them instead of re-spawning a scoped
/// pool per sweep. Dropping the pool shuts the threads down and joins them.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<thread::JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || loop {
                    let job = {
                        let mut guard = shared
                            .queue
                            .lock()
                            .expect("invariant: no worker panics while holding the job-queue lock");
                        loop {
                            if let Some(job) = guard.0.pop_front() {
                                break Some(job);
                            }
                            if guard.1 {
                                break None;
                            }
                            guard = shared
                                .ready
                                .wait(guard)
                                .expect("invariant: no worker panics while holding the job-queue lock");
                        }
                    };
                    let Some((i, sys, run, tx)) = job else { return };
                    let outcome = Simulation::new(sys, run).run();
                    // A dropped receiver just means the submitter gave up on
                    // this batch; the pool itself stays healthy.
                    let _ = tx.send((i, outcome));
                })
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `jobs` on the pool, blocking until all complete; results are in
    /// input order. Concurrent calls from different threads interleave
    /// safely (each call collects only its own results).
    pub fn run_all(&self, jobs: Vec<(SystemConfig, RunConfig)>) -> Vec<RunOutcome> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let (tx, rx) = channel::<(usize, RunOutcome)>();
        {
            let mut guard = self
                .shared
                .queue
                .lock()
                .expect("invariant: no worker panics while holding the job-queue lock");
            for (i, (sys, run)) in jobs.into_iter().enumerate() {
                guard.0.push_back((i, sys, run, tx.clone()));
            }
        }
        self.shared.ready.notify_all();
        drop(tx);
        let mut slots: Vec<Option<RunOutcome>> = (0..n).map(|_| None).collect();
        for (i, outcome) in rx.iter() {
            slots[i] = Some(outcome);
        }
        slots
            .into_iter()
            .map(|s| s.expect("invariant: every queued job sends exactly one result"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut guard = self
                .shared
                .queue
                .lock()
                .expect("invariant: no worker panics while holding the job-queue lock");
            guard.1 = true;
        }
        self.shared.ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The process-wide run-level pool, created on first use with `workers`
/// threads (later calls reuse the first pool regardless of the argument —
/// callers across one campaign pass the same configured worker count).
/// Threads persist for the process lifetime, parked when idle.
pub fn shared_pool(workers: usize) -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(workers))
}

/// Run many independent simulations on a persistent pool of `workers`
/// threads, preserving input order in the result.
///
/// The pool behind this function is the process-wide [`shared_pool`], so an
/// experiment campaign that issues many sweeps reuses one set of threads
/// instead of re-spawning per sweep. The first call fixes the pool size;
/// later calls with a different `workers` still run every job (idle workers
/// wait on the queue, a smaller pool just drains it more slowly), and
/// results never depend on the worker count. Callers needing an exactly
/// sized private pool can hold a [`WorkerPool`] directly.
pub fn run_all(jobs: Vec<(SystemConfig, RunConfig)>, workers: usize) -> Vec<RunOutcome> {
    if jobs.is_empty() {
        return Vec::new();
    }
    shared_pool(workers.max(1)).run_all(jobs)
}

/// A batch command broadcast to every domain worker: the coordinator's
/// quantum specs plus the batch-wide voltage schedule they index into.
struct BatchCmd {
    /// The quanta of this batch, in time order.
    quanta: Vec<QuantumSpec>,
    /// Global voltage per tick across the whole batch.
    v_sched: Vec<f64>,
    /// Per-domain commands (priority, throttle, faults), global indexing,
    /// shared by every quantum of the batch (the coordinator only batches
    /// when they are quantum-invariant).
    ctls: Vec<QuantumCtl>,
    tick: SimDuration,
    /// Whether workers should collect trace events (single-quantum batches
    /// only — the coordinator never batches a traced run).
    collect_events: bool,
}

/// One domain's results for a batch, inside its worker's reply.
struct DomainBatch {
    domain_idx: usize,
    /// Per-tick power across the whole batch.
    powers: Vec<f64>,
    work_done: f64,
    /// Heartbeat: the domain's controller accepted the batch's last quantum
    /// (for a `LoadState` reply: the payload restored cleanly).
    responded: bool,
    /// Trace events this domain emitted (empty unless collecting).
    events: Vec<TraceEvent>,
    /// Serialized domain state (non-empty only for `SaveState` replies).
    state: String,
}

/// One worker's reply to a [`WorkerMsg`]: results for every domain it owns.
/// Replying per worker instead of per domain divides the coordinator's
/// receive count per quantum by the domains-per-worker ratio — the receive
/// path is what dominates at the paper's 1 µs control quantum.
struct WorkerReply {
    domains: Vec<DomainBatch>,
}

enum WorkerMsg {
    /// Advance through a batch. The second field carries recycled
    /// [`DomainBatch`] shells from previous replies — the worker drains
    /// their buffers (cleared and re-zeroed, so values are identical to
    /// fresh allocations) instead of allocating per domain per dispatch.
    Batch(Arc<BatchCmd>, Vec<DomainBatch>),
    /// Request current work figures without advancing.
    ReportWork,
    /// Serialize each owned domain's checkpoint payload without advancing.
    SaveState,
    /// Restore each owned domain from the payload at its global index.
    LoadState(Arc<Vec<String>>),
}

/// Deterministic splitmix64 step — the sanitizer's only entropy source, so
/// a failing ordering is reproducible from its seed alone.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Adversarial reply-order permuter for the schedule-permutation sanitizer
/// ([`crate::simsan`]). When installed on a [`PooledExecutor`], every
/// dispatch first drains *all* worker replies (a maximally delayed merge)
/// and then releases the per-domain batches in a seed-determined order —
/// modelling the worst legal message schedule the channel protocol allows.
/// The executor's results must not change: merging happens by domain
/// index, so any arrival order is equivalent. The sanitizer makes that
/// claim executable.
pub(crate) struct ReplyPermuter {
    seed: u64,
    /// Per-run dispatch counter, so every batch sees a fresh ordering.
    dispatch: u64,
}

impl ReplyPermuter {
    pub(crate) fn new(seed: u64) -> ReplyPermuter {
        ReplyPermuter { seed, dispatch: 0 }
    }

    /// Reorder `batch` by deterministic per-element sort keys (a keyed
    /// shuffle — no index arithmetic, no shared state).
    fn shuffle<T>(&mut self, batch: Vec<T>) -> Vec<T> {
        self.dispatch = self.dispatch.wrapping_add(1);
        let base = splitmix64(self.seed ^ splitmix64(self.dispatch));
        let mut keyed: Vec<(u64, T)> = batch
            .into_iter()
            .enumerate()
            .map(|(i, item)| (splitmix64(base ^ (i as u64)), item))
            .collect();
        keyed.sort_by_key(|(k, _)| *k);
        keyed.into_iter().map(|(_, item)| item).collect()
    }
}

/// Executor that fans domains out to persistent worker threads.
pub(crate) struct PooledExecutor<'scope> {
    cmd_txs: Vec<Sender<WorkerMsg>>,
    reply_rx: Receiver<WorkerReply>,
    kinds: Vec<ComponentKind>,
    nominal_rates: Vec<f64>,
    last_work: Vec<f64>,
    n_domains: usize,
    /// Installed only by the sanitizer entry points; `None` in production.
    permuter: Option<ReplyPermuter>,
    /// Recycled batch command. After a dispatch the workers drop their
    /// handles, so by the next `run_batch` this is the only strong
    /// reference and `Arc::get_mut` lets the command's vectors be refilled
    /// in place instead of reallocated.
    cmd_slot: Option<Arc<BatchCmd>>,
    /// Recycled [`DomainBatch`] shells (power/event buffers), collected
    /// after each merge and shipped back out with the next batch.
    spares: Vec<DomainBatch>,
    /// Domains owned by each worker, in `cmd_txs` order — how many spare
    /// shells each worker gets per dispatch.
    part_sizes: Vec<usize>,
    /// Scatter buffer for merging replies in domain order, reused across
    /// dispatches (all `None` between them).
    results: Vec<Option<DomainBatch>>,
    _marker: std::marker::PhantomData<&'scope ()>,
}

impl PooledExecutor<'_> {
    /// Receive one reply per worker, handing each per-domain result to
    /// `sink`. Results are scattered by domain index afterwards, so arrival
    /// order never matters. Under the sanitizer's [`ReplyPermuter`] the
    /// batches are additionally buffered and released in an adversarially
    /// permuted order before sinking.
    fn collect_replies(&mut self, mut sink: impl FnMut(DomainBatch)) {
        let mut pending: Vec<DomainBatch> = Vec::new();
        let mut seen = 0usize;
        while seen < self.n_domains {
            let reply = self
                .reply_rx
                .recv()
                .expect("invariant: each worker replies once per dispatch");
            for dom in reply.domains {
                seen += 1;
                if self.permuter.is_some() {
                    pending.push(dom);
                } else {
                    self.last_work[dom.domain_idx] = dom.work_done;
                    sink(dom);
                }
            }
        }
        if let Some(p) = self.permuter.as_mut() {
            for dom in p.shuffle(pending) {
                // simlint: allow(L6): domain_idx < n_domains is the worker
                // protocol invariant; the streaming arm above is the same
                // (baselined) access
                self.last_work[dom.domain_idx] = dom.work_done;
                sink(dom);
            }
        }
    }
}

impl DomainExecutor for PooledExecutor<'_> {
    fn kinds(&self) -> Vec<ComponentKind> {
        self.kinds.clone()
    }

    fn nominal_rates(&self) -> Vec<f64> {
        self.nominal_rates.clone()
    }

    fn work_done(&mut self) -> Vec<f64> {
        for tx in &self.cmd_txs {
            tx.send(WorkerMsg::ReportWork)
                .expect("invariant: workers outlive the executor inside the thread scope");
        }
        self.collect_replies(|_| {});
        self.last_work.clone()
    }

    #[allow(clippy::too_many_arguments)]
    fn run_batch(
        &mut self,
        quanta: &[QuantumSpec],
        v_sched: &[f64],
        ctls: &[QuantumCtl],
        tick: SimDuration,
        power_acc: &mut [f64],
        heartbeats: &mut [bool],
        events: Option<&mut Vec<TraceEvent>>,
    ) {
        debug_assert!(
            events.is_none() || quanta.len() == 1,
            "traced runs dispatch single-quantum batches"
        );
        // Refill the previous dispatch's command in place when the workers
        // have all dropped their handles (the steady state); fall back to a
        // fresh allocation on the first dispatch or when a permuter has
        // delayed a drop.
        let cmd = match self.cmd_slot.take().map(|mut arc| {
            match Arc::get_mut(&mut arc) {
                Some(slot) => {
                    slot.quanta.clear();
                    slot.quanta.extend_from_slice(quanta);
                    slot.v_sched.clear();
                    slot.v_sched.extend_from_slice(v_sched);
                    slot.ctls.clear();
                    slot.ctls.extend_from_slice(ctls);
                    slot.tick = tick;
                    slot.collect_events = events.is_some();
                    Ok(arc)
                }
                None => Err(()),
            }
        }) {
            Some(Ok(arc)) => arc,
            _ => Arc::new(BatchCmd {
                quanta: quanta.to_vec(),
                v_sched: v_sched.to_vec(),
                ctls: ctls.to_vec(),
                tick,
                collect_events: events.is_some(),
            }),
        };
        // Ship each worker its share of recycled result shells along with
        // the command (none on the first dispatch — workers then allocate).
        for (w, tx) in self.cmd_txs.iter().enumerate() {
            // simlint: allow(L6): part_sizes is built with one entry per
            // worker channel, so w < part_sizes.len() by construction
            let take = self.part_sizes[w].min(self.spares.len());
            let shells = self.spares.split_off(self.spares.len() - take);
            tx.send(WorkerMsg::Batch(Arc::clone(&cmd), shells))
                .expect("invariant: workers outlive the executor inside the thread scope");
        }
        self.cmd_slot = Some(cmd);
        // Collect one reply per worker, then merge in domain order so the
        // floating-point sums — and the event stream — match the serial
        // executor exactly, whatever order the workers finished in.
        let mut results = std::mem::take(&mut self.results);
        self.collect_replies(|dom| {
            heartbeats[dom.domain_idx] = dom.responded;
            let idx = dom.domain_idx;
            results[idx] = Some(dom);
        });
        let mut events = events;
        for slot in results.iter_mut() {
            if let Some(mut dom) = slot.take() {
                for (acc, p) in power_acc.iter_mut().zip(&dom.powers) {
                    *acc += p;
                }
                if let Some(buf) = events.as_deref_mut() {
                    buf.append(&mut dom.events);
                }
                self.spares.push(dom);
            }
        }
        self.results = results;
    }

    fn domain_states(&mut self) -> Vec<String> {
        for tx in &self.cmd_txs {
            tx.send(WorkerMsg::SaveState)
                // simlint: allow(L6): checkpoint boundary, not per-tick; worker channels live for the executor scope
                .expect("invariant: workers outlive the executor inside the thread scope");
        }
        let mut states = vec![String::new(); self.n_domains];
        self.collect_replies(|dom| {
            // simlint: allow(L6): checkpoint boundary; domain_idx < n_domains by construction
            states[dom.domain_idx] = dom.state;
        });
        states
    }

    fn restore_domain_states(&mut self, states: &[&str]) -> Option<()> {
        if states.len() != self.n_domains {
            return None;
        }
        // Workers outlive this borrow, so they get owned copies.
        let payload: Arc<Vec<String>> = Arc::new(states.iter().map(|s| s.to_string()).collect());
        for tx in &self.cmd_txs {
            tx.send(WorkerMsg::LoadState(Arc::clone(&payload)))
                // simlint: allow(L6): checkpoint boundary, not per-tick; worker channels live for the executor scope
                .expect("invariant: workers outlive the executor inside the thread scope");
        }
        let mut ok = true;
        self.collect_replies(|dom| {
            ok &= dom.responded;
        });
        ok.then_some(())
    }
}

impl Simulation {
    /// Run to completion with the chiplet-parallel executor on `workers`
    /// threads. Produces results bit-identical to [`Simulation::run`].
    pub fn run_parallel(self, workers: usize) -> RunOutcome {
        self.run_parallel_inner(workers, None)
    }

    /// Sanitizer entry point: like [`Simulation::run_parallel`], but worker
    /// replies are buffered per dispatch and merged in the adversarial
    /// order derived from `permute_seed`. A correct executor produces
    /// byte-identical outcomes for every seed; [`crate::simsan`] asserts
    /// exactly that against the serial run.
    pub fn run_parallel_permuted(self, workers: usize, permute_seed: u64) -> RunOutcome {
        self.run_parallel_inner(workers, Some(ReplyPermuter::new(permute_seed)))
    }

    fn run_parallel_inner(self, workers: usize, permuter: Option<ReplyPermuter>) -> RunOutcome {
        let Simulation {
            sys,
            run,
            domains,
            global_ctl,
            vr,
            sensor,
            policy,
        } = self;
        with_pooled_executor(domains, workers, permuter, move |executor| {
            run_loop(sys, run, global_ctl, vr, sensor, policy, executor)
        })
    }
}

/// Spawn the chiplet-parallel worker threads for `domains`, build the
/// [`PooledExecutor`] over them, and hand it to `f`. Workers exit when the
/// executor's command channels drop at the end of `f`. Shared by
/// [`Simulation::run_parallel`] and the resume driver
/// ([`crate::resume::run_resumable`]), which needs the same executor under
/// a stepwise loop instead of `run_loop`.
pub(crate) fn with_pooled_executor<R>(
    domains: Vec<Domain>,
    workers: usize,
    permuter: Option<ReplyPermuter>,
    f: impl FnOnce(PooledExecutor<'_>) -> R,
) -> R {
    {
        let n_domains = domains.len();
        let workers = workers.max(1).min(n_domains);
        let kinds: Vec<ComponentKind> = domains.iter().map(|d| d.kind).collect();
        let nominal_rates: Vec<f64> = domains.iter().map(|d| d.nominal_rate).collect();
        let initial_work: Vec<f64> = domains.iter().map(|d| d.sim.work_done()).collect();

        // Partition domains round-robin so heterogeneous chiplets spread
        // across workers.
        let mut partitions: Vec<Vec<(usize, Domain)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, d) in domains.into_iter().enumerate() {
            partitions[i % workers].push((i, d));
        }
        let part_sizes: Vec<usize> = partitions.iter().map(Vec::len).collect();

        thread::scope(|scope| {
            let (reply_tx, reply_rx) = channel::<WorkerReply>();
            let mut cmd_txs = Vec::with_capacity(workers);
            for part in partitions {
                let (cmd_tx, cmd_rx) = channel::<WorkerMsg>();
                cmd_txs.push(cmd_tx);
                let reply_tx = reply_tx.clone();
                scope.spawn(move || {
                    let mut part = part;
                    while let Ok(msg) = cmd_rx.recv() {
                        let reply = match msg {
                            WorkerMsg::Batch(cmd, mut shells) => {
                                let n_ticks = cmd.v_sched.len();
                                let mut domains = Vec::with_capacity(part.len());
                                for (idx, d) in part.iter_mut() {
                                    // Drain a recycled shell's buffers when
                                    // one was shipped with the command; the
                                    // cleared-and-rezeroed buffers hold the
                                    // same values a fresh allocation would.
                                    let (mut powers, mut events) = match shells.pop() {
                                        Some(shell) => (shell.powers, shell.events),
                                        None => (Vec::new(), Vec::new()),
                                    };
                                    powers.clear();
                                    powers.resize(n_ticks, 0.0);
                                    events.clear();
                                    let mut responded = true;
                                    for q in &cmd.quanta {
                                        responded = d.run_quantum(
                                            q.t0,
                                            &cmd.v_sched[q.offset..q.offset + q.n],
                                            q.update_local,
                                            &cmd.ctls[*idx],
                                            cmd.tick,
                                            &mut powers[q.offset..q.offset + q.n],
                                            cmd.collect_events.then_some(&mut events),
                                        );
                                    }
                                    domains.push(DomainBatch {
                                        domain_idx: *idx,
                                        powers,
                                        work_done: d.sim.work_done(),
                                        responded,
                                        events,
                                        state: String::new(),
                                    });
                                }
                                WorkerReply { domains }
                            }
                            WorkerMsg::ReportWork => WorkerReply {
                                domains: part
                                    .iter()
                                    .map(|(idx, d)| DomainBatch {
                                        domain_idx: *idx,
                                        powers: Vec::new(),
                                        work_done: d.sim.work_done(),
                                        responded: true,
                                        events: Vec::new(),
                                        state: String::new(),
                                    })
                                    .collect(),
                            },
                            WorkerMsg::SaveState => WorkerReply {
                                domains: part
                                    .iter()
                                    .map(|(idx, d)| DomainBatch {
                                        domain_idx: *idx,
                                        powers: Vec::new(),
                                        work_done: d.sim.work_done(),
                                        responded: true,
                                        events: Vec::new(),
                                        state: encode_domain_state(d),
                                    })
                                    .collect(),
                            },
                            WorkerMsg::LoadState(states) => WorkerReply {
                                domains: part
                                    .iter_mut()
                                    .map(|(idx, d)| {
                                        let ok = states
                                            .get(*idx)
                                            .and_then(|s| decode_domain_state(d, s))
                                            .is_some();
                                        DomainBatch {
                                            domain_idx: *idx,
                                            powers: Vec::new(),
                                            work_done: d.sim.work_done(),
                                            responded: ok,
                                            events: Vec::new(),
                                            state: String::new(),
                                        }
                                    })
                                    .collect(),
                            },
                        };
                        if reply_tx.send(reply).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(reply_tx);

            let executor = PooledExecutor {
                cmd_txs,
                reply_rx,
                kinds,
                nominal_rates,
                last_work: initial_work,
                n_domains,
                permuter,
                cmd_slot: None,
                spares: Vec::with_capacity(n_domains),
                part_sizes,
                results: (0..n_domains).map(|_| None).collect(),
                _marker: std::marker::PhantomData,
            };
            // Workers exit when their command channels drop with the
            // executor at the end of `f`.
            f(executor)
        })
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
        let sys = SystemConfig::paper_system(combo_suite()[4], seed); // Hi-Low
        let target = PowerLimit::package_pin().guardbanded_target();
        let run = RunConfig::new(
            SimDuration::from_millis(2),
            ControlScheme::Hcapp,
            target,
        );
        (sys, run)
    }

    #[test]
    fn run_all_preserves_order_and_determinism() {
        let jobs: Vec<_> = (0..4).map(job).collect();
        let par = run_all(jobs.clone(), 4);
        let ser: Vec<RunOutcome> = jobs
            .into_iter()
            .map(|(s, r)| Simulation::new(s, r).run())
            .collect();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.avg_power, s.avg_power);
            assert_eq!(p.work, s.work);
        }
    }

    #[test]
    fn run_all_with_single_worker() {
        let out = run_all(vec![job(9)], 1);
        assert_eq!(out.len(), 1);
        assert!(out[0].avg_power.value() > 0.0);
    }

    #[test]
    fn run_all_with_more_workers_than_jobs() {
        let out = run_all(vec![job(3), job(5)], 16);
        assert_eq!(out.len(), 2);
        for o in &out {
            assert!(o.avg_power.value() > 0.0);
        }
    }

    #[test]
    fn run_all_with_empty_job_list() {
        let out = run_all(Vec::new(), 4);
        assert!(out.is_empty());
        // The pool form likewise returns without blocking on a condvar.
        let pool = WorkerPool::new(2);
        assert!(pool.run_all(Vec::new()).is_empty());
    }

    #[test]
    fn worker_pool_reused_across_submissions() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.workers(), 3);
        let first = pool.run_all(vec![job(3), job(5), job(7)]);
        let second = pool.run_all(vec![job(3)]);
        assert_eq!(first.len(), 3);
        assert_eq!(second.len(), 1);
        // Same job, same pool → bit-identical outcome on reuse.
        assert_eq!(first[0].avg_power, second[0].avg_power);
        assert_eq!(first[0].work, second[0].work);
    }

    #[test]
    fn chiplet_parallel_matches_serial_bitwise() {
        let (sys, run) = job(13);
        let ser = Simulation::new(sys.clone(), run.clone()).run();
        let par = Simulation::new(sys, run).run_parallel(3);
        assert_eq!(ser.avg_power, par.avg_power, "avg power differs");
        assert_eq!(ser.energy_j, par.energy_j, "energy differs");
        assert_eq!(ser.work, par.work, "work differs");
        assert_eq!(ser.windowed_max, par.windowed_max, "windowed max differs");
        assert_eq!(
            ser.mean_global_voltage, par.mean_global_voltage,
            "mean voltage differs"
        );
    }

    #[test]
    fn chiplet_parallel_with_more_workers_than_domains() {
        let (sys, run) = job(17);
        let out = Simulation::new(sys, run).run_parallel(16);
        assert!(out.avg_power.value() > 0.0);
    }

    #[test]
    fn chiplet_parallel_with_software_policy() {
        let (sys, run) = job(21);
        let run = run.with_software(crate::coordinator::SoftwareConfig::StaticPriority(
            ComponentKind::Cpu,
        ));
        let ser = Simulation::new(sys.clone(), run.clone()).run();
        let par = Simulation::new(sys, run).run_parallel(2);
        assert_eq!(ser.work, par.work);
    }

    #[test]
    fn batched_fixed_baseline_matches_per_quantum_bitwise() {
        // The fixed-voltage baseline is the feedback-free path where
        // multi-quantum batching actually engages; every batch bound must
        // produce the same bits, serial and pooled.
        let sys = SystemConfig::paper_system(combo_suite()[1], 23);
        let target = PowerLimit::package_pin().guardbanded_target();
        let mk = |batch: usize| {
            RunConfig::new(
                SimDuration::from_millis(2),
                ControlScheme::fixed_baseline(),
                target,
            )
            .with_trace()
            .with_batch_quanta(batch)
        };
        let reference = Simulation::new(sys.clone(), mk(1)).run();
        for batch in [2, 5, 32, 1000] {
            let ser = Simulation::new(sys.clone(), mk(batch)).run();
            let par = Simulation::new(sys.clone(), mk(batch)).run_parallel(2);
            for out in [&ser, &par] {
                assert_eq!(reference.avg_power, out.avg_power, "batch {batch}");
                assert_eq!(reference.energy_j, out.energy_j, "batch {batch}");
                assert_eq!(reference.work, out.work, "batch {batch}");
                assert_eq!(reference.windowed_max, out.windowed_max, "batch {batch}");
                assert_eq!(
                    reference.mean_global_voltage, out.mean_global_voltage,
                    "batch {batch}"
                );
                assert_eq!(
                    reference.trace.as_ref().map(|t| t.values().to_vec()),
                    out.trace.as_ref().map(|t| t.values().to_vec()),
                    "batch {batch}"
                );
            }
        }
    }
}
