//! Parallel execution.
//!
//! Two levels of parallelism, both deterministic, both built on the standard
//! library only, so the workspace stays hermetic — simlint rule L4 forbids
//! registry dependencies, and rule L3 plus the determinism regression tests
//! in this module keep the parallel paths bit-identical to the serial ones:
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
//!    schedule is fixed at the boundary). The domains are cut, in index
//!    order, into contiguous shards balanced on stepping cost, and each
//!    shard is owned by one thread for the whole run: the calling thread
//!    serves the heaviest shard and one scoped helper serves each other
//!    shard. A
//!    dispatch is one shared-memory epoch barrier, not a message
//!    round-trip: the coordinator writes the command in place, bumps an
//!    atomic epoch, serves its own shard, and waits for the helpers'
//!    arrival count to reach zero. Waiting threads spin for a short fixed
//!    budget, then yield, then park, so a pool larger than the host's core
//!    count still makes progress. Every domain's powers, heartbeat, events
//!    and state land in buffers of its own, which the coordinator merges
//!    *in domain order* after the barrier — making the result
//!    bit-identical to the serial executor whatever the shard layout or
//!    timing (integration tests and [`crate::simsan`] assert this).

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::thread::{self, Thread};

use hcapp_sim_core::rng::DeterministicRng;
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

/// Spin-loop rounds a waiting thread polls before it starts yielding:
/// about 6 µs on the reference host, which covers the coordinator's serial
/// work between two dispatches on the paper package, so a helper with a
/// core of its own meets the next epoch without a futex round-trip.
const SPINS: u32 = 1 << 8;
/// `yield_now` rounds after the spin and before parking. On a host with
/// fewer cores than threads they hand the core to a thread that has work;
/// otherwise they keep polling for about 15 µs more.
const YIELDS: u32 = 1 << 5;

/// Wait until `ready()` holds: spin for a fixed budget, then yield, then
/// park. Whoever makes `ready()` true unparks the waiter afterwards; an
/// unpark that lands before the park leaves a token that makes the park
/// return at once, so no wake-up is lost.
fn wait_until(ready: impl Fn() -> bool) {
    for _ in 0..SPINS {
        if ready() {
            return;
        }
        std::hint::spin_loop();
    }
    for _ in 0..YIELDS {
        if ready() {
            return;
        }
        thread::yield_now();
    }
    while !ready() {
        thread::park();
    }
}

/// What one dispatch asks of every shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Op {
    /// Advance every domain through the batch of quanta.
    #[default]
    Batch,
    /// Record each domain's cumulative work.
    ReportWork,
    /// Serialize each domain's checkpoint payload.
    SaveState,
    /// Restore each domain from the payload at its index.
    LoadState,
}

/// One shard's sanitizer schedule for one dispatch.
#[derive(Debug, Clone, Copy, Default)]
struct Turn {
    /// `yield_now` calls before the shard starts.
    yields: u64,
    /// The shard serves its members starting at this position (mod the
    /// member count), wrapping round.
    rotate: u64,
}

/// The dispatch command. The coordinator writes it while every helper
/// waits at the barrier, and every shard reads it during the epoch that
/// follows. Its buffers are refilled in place, so once they have grown a
/// dispatch allocates nothing.
#[derive(Default)]
struct Command {
    op: Op,
    /// The quanta of a batch, in time order.
    quanta: Vec<QuantumSpec>,
    /// Global voltage per tick across the whole batch.
    v_sched: Vec<f64>,
    /// Per-domain commands, global indexing, shared by every quantum of
    /// the batch (the coordinator only batches when they are
    /// quantum-invariant).
    ctls: Vec<QuantumCtl>,
    tick: SimDuration,
    /// Collect trace events (single-quantum batches only: the coordinator
    /// never batches a traced run).
    collect_events: bool,
    /// `LoadState` payloads, global indexing.
    states: Vec<String>,
    /// Per-shard sanitizer schedule; empty in production.
    turns: Vec<Turn>,
}

/// One domain and what its shard last computed for it. The coordinator
/// reads these after the barrier. Cache-line aligned, so the members of
/// two shards never share a line.
#[repr(align(128))]
struct Member {
    /// Global domain index.
    index: usize,
    domain: Domain,
    /// Per-tick power across the last batch. Zeroed before stepping, so
    /// each entry is exactly the domain's tick power (`0.0 + p == p`).
    powers: Vec<f64>,
    /// Trace events of the last batch (empty unless collecting).
    events: Vec<TraceEvent>,
    /// Heartbeat of the last batch's final quantum; after `LoadState`,
    /// whether the payload restored cleanly.
    responded: bool,
    work_done: f64,
    /// Checkpoint payload, filled by `SaveState`.
    state: String,
}

impl Member {
    fn new(index: usize, domain: Domain) -> Member {
        Member {
            index,
            work_done: domain.sim.work_done(),
            domain,
            powers: Vec::new(),
            events: Vec::new(),
            responded: true,
            state: String::new(),
        }
    }

    fn serve(&mut self, cmd: &Command) {
        match cmd.op {
            Op::Batch => self.step_quanta(cmd),
            Op::ReportWork => self.work_done = self.domain.sim.work_done(),
            Op::SaveState => self.state = encode_domain_state(&self.domain),
            Op::LoadState => {
                self.responded = cmd
                    .states
                    .get(self.index)
                    .and_then(|s| decode_domain_state(&mut self.domain, s))
                    .is_some();
            }
        }
    }

    fn step_quanta(&mut self, cmd: &Command) {
        let Some(ctl) = cmd.ctls.get(self.index) else {
            return;
        };
        self.powers.clear();
        self.powers.resize(cmd.v_sched.len(), 0.0);
        self.events.clear();
        for q in &cmd.quanta {
            let ticks = q.offset..q.offset + q.n;
            let (Some(v), Some(p)) = (cmd.v_sched.get(ticks.clone()), self.powers.get_mut(ticks))
            else {
                continue;
            };
            self.responded = self.domain.run_quantum(
                q.t0,
                v,
                q.update_local,
                ctl,
                cmd.tick,
                p,
                cmd.collect_events.then_some(&mut self.events),
            );
        }
    }
}

/// The domains one thread serves, for the whole run.
struct Shard {
    members: Vec<Member>,
}

impl Shard {
    /// Serve every member, starting at `rotate` (mod the member count).
    fn serve(&mut self, cmd: &Command, rotate: u64) {
        let mid = (rotate % self.members.len().max(1) as u64) as usize;
        let (front, back) = self.members.split_at_mut(mid);
        for m in back.iter_mut().chain(front) {
            m.serve(cmd);
        }
    }
}

/// Puts its contents on cache lines of their own (128 bytes also covers
/// the adjacent-line prefetcher), so that a value one thread writes never
/// shares a line with a value another thread polls or writes.
#[repr(align(128))]
struct CacheAligned<T>(T);

impl<T> std::ops::Deref for CacheAligned<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The epoch value that tells every helper to return.
const EXIT: u64 = u64::MAX;

/// State the coordinator and its helpers share for one run.
struct Shared {
    cmd: CacheAligned<RwLock<Command>>,
    /// Shard `k` is served by helper `k`; shard 0 by the calling thread.
    /// Guards are taken through poisoning: a poisoned lock belongs to a
    /// helper that panicked, whose panic the thread scope re-raises when
    /// the run ends, so the coordinator reads on instead of panicking too.
    shards: Vec<CacheAligned<Mutex<Shard>>>,
    /// Bumped once per dispatch, after `cmd` is written; [`EXIT`] when the
    /// executor drops. The coordinator's `Release` bump pairs with each
    /// helper's `Acquire` load, publishing the command and `pending`.
    epoch: CacheAligned<AtomicU64>,
    /// Helpers that have not yet finished the current dispatch. Each
    /// helper's `AcqRel` decrement pairs with the coordinator's `Acquire`
    /// load, publishing the shard's results (which the shard locks also
    /// order).
    pending: CacheAligned<AtomicUsize>,
    /// Helpers still serving. One whose shard panics leaves, so later
    /// dispatches do not wait for it; the thread scope re-raises its panic
    /// when the run ends.
    live: AtomicUsize,
    /// The calling thread, unparked by the last helper to arrive.
    coordinator: Thread,
}

/// Serve shard `k` for the published command, after the sanitizer's
/// start delay for it, which is taken with no guard held.
fn serve_shard(shared: &Shared, k: usize) {
    let mut cmd = shared.cmd.read().unwrap_or_else(PoisonError::into_inner);
    let delay = cmd.turns.get(k).map_or(0, |t| t.yields);
    if delay > 0 {
        {
            // Release the guard for the delay (not `drop(cmd)`: simlint's
            // call graph would resolve it to every `Drop` impl).
            let _released = cmd;
        }
        for _ in 0..delay {
            thread::yield_now();
        }
        cmd = shared.cmd.read().unwrap_or_else(PoisonError::into_inner);
    }
    let rotate = cmd.turns.get(k).map_or(0, |t| t.rotate);
    if let Some(shard) = shared.shards.get(k) {
        shard
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .serve(&cmd, rotate);
    }
}

/// A helper's arrival at the barrier. It arrives from a destructor, so a
/// helper whose shard panics still arrives (and leaves the live count)
/// instead of stranding the coordinator.
struct Arrival<'a>(&'a Shared);

impl Drop for Arrival<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.live.fetch_sub(1, Ordering::AcqRel);
        }
        if self.0.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.coordinator.unpark();
        }
    }
}

/// Helper `k`'s loop: wait for the next epoch, serve shard `k`, arrive.
fn helper(shared: &Shared, k: usize) {
    let mut seen = 0;
    loop {
        wait_until(|| shared.epoch.load(Ordering::Acquire) != seen);
        seen = shared.epoch.load(Ordering::Acquire);
        if seen == EXIT {
            return;
        }
        let arrival = Arrival(shared);
        serve_shard(shared, k);
        drop(arrival);
    }
}

/// Seeded schedule for the schedule-permutation sanitizer
/// ([`crate::simsan`]). Installed on a [`PooledExecutor`], it replaces the
/// contiguous cost-balanced shards with a seeded, generally non-contiguous
/// domain→shard assignment, and gives every shard of every dispatch a
/// seeded start delay (`yield_now` calls) and member order. The results
/// must not change: each domain's outputs land in buffers of its own and
/// are merged in domain order, so no assignment or timing is observable.
/// The sanitizer makes that claim executable.
pub(crate) struct SchedulePermuter {
    seed: u64,
    /// Dispatches so far; dispatch `d` draws from stream `d` (stream 0 is
    /// the assignment).
    dispatch: u64,
}

impl SchedulePermuter {
    pub(crate) fn new(seed: u64) -> SchedulePermuter {
        SchedulePermuter { seed, dispatch: 0 }
    }

    /// The owning shard of each domain: a seeded shuffle of the domain
    /// indices cut into `shards` chunks whose sizes differ by at most one.
    fn owners(&self, n: usize, shards: usize) -> Vec<usize> {
        let mut rng = DeterministicRng::derive(self.seed, 0);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut owner = vec![0; n];
        for (pos, &d) in order.iter().enumerate() {
            owner[d] = pos * shards / n;
        }
        owner
    }

    /// Refill `turns` with the next dispatch's per-shard schedule.
    fn next_turns(&mut self, turns: &mut Vec<Turn>, shards: usize) {
        self.dispatch += 1;
        let mut rng = DeterministicRng::derive(self.seed, self.dispatch);
        turns.clear();
        turns.extend((0..shards).map(|_| Turn {
            yields: rng.below(4),
            rotate: rng.next_u64(),
        }));
    }
}

/// Executor that steps domain shards on a barrier-synchronized pool: the
/// calling thread serves shard 0 (the heaviest range), one scoped helper
/// serves each other shard.
pub(crate) struct PooledExecutor<'a> {
    shared: &'a Shared,
    /// Helper threads, for unparking; helper `k` serves shard `k`.
    helpers: Vec<Thread>,
    kinds: Vec<ComponentKind>,
    nominal_rates: Vec<f64>,
    /// `(shard, position in shard)` of each domain, in domain order.
    place: Vec<(usize, usize)>,
    /// Installed only by the sanitizer entry points; `None` in production.
    permuter: Option<SchedulePermuter>,
}

impl PooledExecutor<'_> {
    /// One epoch: write the command with `fill`, release the helpers,
    /// serve shard 0 here, and wait until every live helper has arrived.
    fn run_epoch(&mut self, fill: impl FnOnce(&mut Command)) {
        let shared = self.shared;
        {
            let mut cmd = shared.cmd.write().unwrap_or_else(PoisonError::into_inner);
            fill(&mut cmd);
            cmd.turns.clear();
            if let Some(p) = self.permuter.as_mut() {
                p.next_turns(&mut cmd.turns, shared.shards.len());
            }
        }
        shared
            .pending
            .store(shared.live.load(Ordering::Acquire), Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
        serve_shard(shared, 0);
        wait_until(|| shared.pending.load(Ordering::Acquire) == 0);
    }

    /// Visit every member in domain order, holding one shard lock at a
    /// time (one lock per shard when shards are contiguous).
    fn visit_members(&self, mut visit: impl FnMut(usize, &mut Member)) {
        let mut held: Option<(usize, MutexGuard<'_, Shard>)> = None;
        for (i, &(k, pos)) in self.place.iter().enumerate() {
            if held.as_ref().map(|(h, _)| *h) != Some(k) {
                // Release the current shard before locking the next.
                let _ = held.take();
                held = self
                    .shared
                    .shards
                    .get(k)
                    .map(|s| (k, s.lock().unwrap_or_else(PoisonError::into_inner)));
            }
            if let Some(m) = held.as_mut().and_then(|(_, g)| g.members.get_mut(pos)) {
                visit(i, m);
            }
        }
    }
}

impl Drop for PooledExecutor<'_> {
    /// Publish [`EXIT`], so every helper returns and the scope can join it.
    fn drop(&mut self) {
        self.shared.epoch.store(EXIT, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
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
        self.run_epoch(|cmd| cmd.op = Op::ReportWork);
        let mut work = Vec::with_capacity(self.place.len());
        self.visit_members(|_, m| work.push(m.work_done));
        work
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
        mut events: Option<&mut Vec<TraceEvent>>,
    ) {
        debug_assert!(
            events.is_none() || quanta.len() == 1,
            "traced runs dispatch single-quantum batches"
        );
        self.run_epoch(|cmd| {
            cmd.op = Op::Batch;
            cmd.quanta.clear();
            cmd.quanta.extend_from_slice(quanta);
            cmd.v_sched.clear();
            cmd.v_sched.extend_from_slice(v_sched);
            cmd.ctls.clear();
            cmd.ctls.extend_from_slice(ctls);
            cmd.tick = tick;
            cmd.collect_events = events.is_some();
        });
        // Merge in domain order, so the floating-point sums and the event
        // stream match the serial executor exactly, whatever the shards.
        self.visit_members(|i, m| {
            for (acc, p) in power_acc.iter_mut().zip(&m.powers) {
                *acc += p;
            }
            if let Some(h) = heartbeats.get_mut(i) {
                *h = m.responded;
            }
            if let Some(buf) = events.as_deref_mut().filter(|_| !m.events.is_empty()) {
                buf.append(&mut m.events);
            }
        });
    }

    fn domain_states(&mut self) -> Vec<String> {
        self.run_epoch(|cmd| cmd.op = Op::SaveState);
        let mut states = Vec::with_capacity(self.place.len());
        self.visit_members(|_, m| states.push(std::mem::take(&mut m.state)));
        states
    }

    fn restore_domain_states(&mut self, states: &[&str]) -> Option<()> {
        if states.len() != self.place.len() {
            return None;
        }
        self.run_epoch(|cmd| {
            cmd.op = Op::LoadState;
            cmd.states.clear();
            cmd.states.extend(states.iter().map(|s| s.to_string()));
        });
        self.shared
            .cmd
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .states
            .clear();
        let mut ok = true;
        self.visit_members(|_, m| ok &= m.responded);
        ok.then_some(())
    }
}

impl Simulation {
    /// Run to completion with the chiplet-parallel executor on `workers`
    /// threads, the calling thread included: `workers = 1` steps every
    /// domain inline and spawns nothing. Produces results bit-identical to
    /// [`Simulation::run`].
    pub fn run_parallel(self, workers: usize) -> RunOutcome {
        self.run_parallel_inner(workers, None)
    }

    /// Sanitizer entry point: like [`Simulation::run_parallel`], but the
    /// domain→shard assignment and every dispatch's shard start delays and
    /// member order are derived from `permute_seed`. A correct executor
    /// produces byte-identical outcomes for every seed; [`crate::simsan`]
    /// asserts exactly that against the serial run.
    pub fn run_parallel_permuted(self, workers: usize, permute_seed: u64) -> RunOutcome {
        self.run_parallel_inner(workers, Some(SchedulePermuter::new(permute_seed)))
    }

    fn run_parallel_inner(self, workers: usize, permuter: Option<SchedulePermuter>) -> RunOutcome {
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

/// Host cost of stepping one domain, in units of one unit-tick: its unit
/// count plus one. A CPU core, GPU SM and SHA engine each cost about
/// 18–19 ns per tick on the reference host, and a domain's supply delivery
/// and local update about 36 ns more, close to one further unit.
fn shard_weight(d: &Domain) -> u64 {
    d.sim.units() as u64 + 1
}

/// Cut `weights` in index order into `min(shards, n)` non-empty contiguous
/// ranges (one empty range when `n = 0`) whose heaviest total weight is as
/// small as possible.
pub(crate) fn partition(weights: &[u64], shards: usize) -> Vec<Range<usize>> {
    let k = shards.max(1).min(weights.len().max(1));
    let mut lo = weights.iter().copied().max().unwrap_or(0);
    let mut hi: u64 = weights.iter().sum();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if fill_back(weights, k, mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    fill_back(weights, k, lo).unwrap_or_else(|| vec![0..weights.len()])
}

/// Fill `k` ranges back to front, each as heavy as `bound` allows while
/// leaving at least one domain for every range still to fill; `None` if
/// the domains do not fit.
fn fill_back(weights: &[u64], k: usize, bound: u64) -> Option<Vec<Range<usize>>> {
    let mut ranges = Vec::with_capacity(k);
    let mut end = weights.len();
    for before in (0..k).rev() {
        let mut start = end;
        let mut load = 0;
        for &w in weights.get(before..end).unwrap_or(&[]).iter().rev() {
            if load + w > bound {
                break;
            }
            load += w;
            start -= 1;
        }
        if start == end && end > 0 {
            return None;
        }
        ranges.push(start..end);
        end = start;
    }
    ranges.reverse();
    (end == 0).then_some(ranges)
}

/// Split `domains` into shards, start the helper threads, build the
/// [`PooledExecutor`] over them, and hand it to `f`. Helpers return when
/// the executor drops at the end of `f`, and the thread scope joins them
/// before this returns. Shared by [`Simulation::run_parallel`] and the
/// resume driver ([`crate::resume::run_resumable`]), which needs the same
/// executor under a stepwise loop instead of `run_loop`.
pub(crate) fn with_pooled_executor<R>(
    domains: Vec<Domain>,
    workers: usize,
    permuter: Option<SchedulePermuter>,
    f: impl FnOnce(PooledExecutor<'_>) -> R,
) -> R {
    let n = domains.len();
    let shards = workers.max(1).min(n.max(1));
    let kinds: Vec<ComponentKind> = domains.iter().map(|d| d.kind).collect();
    let nominal_rates: Vec<f64> = domains.iter().map(|d| d.nominal_rate).collect();
    let owner: Vec<usize> = match &permuter {
        Some(p) => p.owners(n, shards),
        None => {
            let weights: Vec<u64> = domains.iter().map(shard_weight).collect();
            let ranges = partition(&weights, shards);
            // The calling thread serves the heaviest range as shard 0: it
            // starts at once, with the command in its own cache, while a
            // helper first has to see the epoch and fetch the command.
            let load = |r: &Range<usize>| weights.get(r.clone()).map_or(0, |w| w.iter().sum());
            let caller = ranges
                .iter()
                .enumerate()
                .max_by_key(|(k, r)| (load(r), std::cmp::Reverse(*k)))
                .map_or(0, |(k, _)| k);
            ranges
                .into_iter()
                .enumerate()
                .flat_map(|(k, r)| {
                    let shard = if k == caller {
                        0
                    } else if k == 0 {
                        caller
                    } else {
                        k
                    };
                    r.map(move |_| shard)
                })
                .collect()
        }
    };
    let mut members: Vec<Vec<Member>> = (0..shards).map(|_| Vec::new()).collect();
    let mut place = Vec::with_capacity(n);
    for ((i, d), k) in domains.into_iter().enumerate().zip(owner) {
        place.push((k, members[k].len()));
        members[k].push(Member::new(i, d));
    }
    let shared = Shared {
        cmd: CacheAligned(RwLock::new(Command::default())),
        shards: members
            .into_iter()
            .map(|members| CacheAligned(Mutex::new(Shard { members })))
            .collect(),
        epoch: CacheAligned(AtomicU64::new(0)),
        pending: CacheAligned(AtomicUsize::new(0)),
        live: AtomicUsize::new(shards - 1),
        coordinator: thread::current(),
    };
    thread::scope(|scope| {
        let shared = &shared;
        let helpers = (1..shards)
            .map(|k| scope.spawn(move || helper(shared, k)).thread().clone())
            .collect();
        f(PooledExecutor {
            shared,
            helpers,
            kinds,
            nominal_rates,
            place,
            permuter,
        })
    })
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

    /// Shard weights of a real package, in domain order.
    fn weights_of(sys: SystemConfig) -> Vec<u64> {
        let (_, run) = job(0);
        Simulation::new(sys, run)
            .domains
            .iter()
            .map(shard_weight)
            .collect()
    }

    /// The 256-domain package of the scaling study: 86 CPU, 85 GPU and
    /// 85 SHA chiplets.
    fn scaled_256() -> Vec<u64> {
        let sys = SystemConfig::scaled_system(combo_suite()[3], 86, 85, 85, 1)
            .expect("non-empty package");
        weights_of(sys)
    }

    /// Exhaustive optimum: the smallest heaviest-range weight over every
    /// cut of `weights` into `k` non-empty contiguous ranges.
    fn optimal_heaviest(weights: &[u64], k: usize) -> u64 {
        let n = weights.len();
        let mut prefix = vec![0u64; n + 1];
        for (i, w) in weights.iter().enumerate() {
            prefix[i + 1] = prefix[i] + w;
        }
        let mut best = vec![vec![u64::MAX; n + 1]; k + 1];
        best[0][0] = 0;
        for j in 1..=k {
            for i in j..=n {
                for m in j - 1..i {
                    if best[j - 1][m] != u64::MAX {
                        let heaviest = best[j - 1][m].max(prefix[i] - prefix[m]);
                        best[j][i] = best[j][i].min(heaviest);
                    }
                }
            }
        }
        best[k][n]
    }

    fn heaviest(weights: &[u64], ranges: &[Range<usize>]) -> u64 {
        ranges
            .iter()
            .map(|r| weights[r.clone()].iter().sum::<u64>())
            .max()
            .unwrap_or(0)
    }

    /// Every domain lands in exactly one shard; the shards are contiguous,
    /// in index order and non-empty.
    fn assert_tiles(ranges: &[Range<usize>], n: usize, k: usize) {
        assert_eq!(ranges.len(), k, "{ranges:?}");
        let mut next = 0;
        for r in ranges {
            assert_eq!(r.start, next, "contiguous: {ranges:?}");
            assert!(r.end > r.start, "non-empty: {ranges:?}");
            next = r.end;
        }
        assert_eq!(next, n, "covers every domain: {ranges:?}");
    }

    #[test]
    fn partition_tiles_domains_into_contiguous_non_empty_shards() {
        let cases: Vec<Vec<u64>> = vec![
            vec![9, 16, 2],
            vec![1; 7],
            vec![50, 1, 1, 1, 1, 1, 50],
            vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
            scaled_256(),
        ];
        for weights in &cases {
            let n = weights.len();
            for w in 1..=n.min(9) {
                assert_tiles(&partition(weights, w), n, w);
            }
        }
    }

    #[test]
    fn partition_clamps_shards_to_domains() {
        let weights = [9, 16, 2];
        for w in [3, 4, 5, 16] {
            assert_tiles(&partition(&weights, w), 3, 3);
        }
        assert_tiles(&partition(&weights, 0), 3, 1);
        assert_eq!(partition(&[], 4), vec![0..0]);
    }

    #[test]
    fn partition_minimizes_the_heaviest_shard() {
        let paper = weights_of(SystemConfig::paper_system(combo_suite()[3], 1));
        assert_eq!(paper, vec![9, 16, 2], "CPU, GPU and SHA: units + 1");
        // {CPU} | {GPU, SHA} is the only two-way cut with the optimum.
        assert_eq!(partition(&paper, 2), vec![0..1, 1..3]);
        let scaled = scaled_256();
        let irregular = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        for weights in [&paper[..], &scaled[..], &irregular[..]] {
            for w in 1..=weights.len().min(4) {
                assert_eq!(
                    heaviest(weights, &partition(weights, w)),
                    optimal_heaviest(weights, w),
                    "{w} shards over {} domains",
                    weights.len()
                );
            }
        }
    }

    #[test]
    fn sanitizer_assignment_is_seeded_balanced_and_non_contiguous() {
        let (n, k) = (12, 3);
        let owners = SchedulePermuter::new(5).owners(n, k);
        assert_eq!(owners, SchedulePermuter::new(5).owners(n, k), "seeded");
        for shard in 0..k {
            assert_eq!(owners.iter().filter(|&&o| o == shard).count(), n / k);
        }
        let contiguous = owners.windows(2).all(|p| p[0] <= p[1]);
        assert!(!contiguous, "a shuffled assignment: {owners:?}");
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
