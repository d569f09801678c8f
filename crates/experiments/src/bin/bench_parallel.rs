//! Wall-clock bench of the executor and cache paths, JSON-reported so the
//! perf trajectory is tracked across PRs (`scripts/bench_smoke.sh` runs
//! this in smoke mode from `scripts/check.sh`).
//!
//! Three comparisons, matching the PR acceptance criteria:
//!
//! 1. **Serial vs pooled at the paper's 1 µs quantum** on a scaled
//!    package — dynamic schemes re-plan every quantum, so multi-quantum
//!    batching cannot engage and every quantum pays one epoch barrier of
//!    the pooled executor.
//! 2. **Per-quantum vs batched dispatch** on the pooled executor for the
//!    fixed-voltage baseline (`batch_quanta` 1 vs 32), where whole batches
//!    of quanta really do share one barrier. Run on a coarse tick that
//!    reproduces the paper's 1 µs-quantum dispatch-to-compute ratio, the
//!    regime quantum batching exists for.
//! 3. **Cold vs warm result cache** over a suite sweep — the warm rerun
//!    must replay from disk in a small fraction of the cold wall-clock.
//!
//! Timings use `std::time::Instant`, which is legal here: `experiments` is
//! a host crate, outside simlint L3's library-crate scope, and nothing
//! measured feeds back into simulated time.

use std::time::Instant;

use hcapp::cache::{run_all_cached, RunCache};
use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_experiments::ExperimentConfig;
use hcapp_sim_core::time::SimDuration;
use hcapp_workloads::combos::combo_suite;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Best-of-N wall clock: the minimum is the standard noise filter for
/// short benchmarks (scheduler hiccups only ever make a trial slower).
fn secs_min(trials: u64, mut f: impl FnMut()) -> f64 {
    (0..trials.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn scaled(n_each: usize, ms: u64, scheme: ControlScheme, batch: usize) -> Simulation {
    scaled_with_tick(n_each, ms, scheme, batch, SimDuration::from_nanos(100))
}

/// Like [`scaled`] but with an explicit model tick. The batch comparison
/// uses a coarser tick so each quantum carries less compute and the
/// executor's per-quantum dispatch cost — the thing batching amortizes —
/// is a measurable fraction of the wall clock instead of sub-percent
/// noise under the 1000-tick default quantum.
fn scaled_with_tick(
    n_each: usize,
    ms: u64,
    scheme: ControlScheme,
    batch: usize,
    tick: SimDuration,
) -> Simulation {
    let mut sys = SystemConfig::scaled_system(combo_suite()[3], n_each, n_each, n_each, 7)
        .expect("n_each is clamped to >= 1");
    sys.tick = tick;
    let run = RunConfig::new(
        SimDuration::from_millis(ms),
        scheme,
        PowerLimit::package_pin().guardbanded_target(),
    )
    .with_batch_quanta(batch);
    Simulation::new(sys, run)
}

fn main() {
    // Smoke defaults (~seconds); raise HCAPP_BENCH_MS / HCAPP_BENCH_SCALE
    // for a steadier signal.
    let ms = env_u64("HCAPP_BENCH_MS", 20).max(1);
    let n_each = env_u64("HCAPP_BENCH_SCALE", 4).max(1) as usize;
    // Default to 4 workers even on small hosts: the interesting cost is the
    // per-quantum barrier of a multi-worker pool (with parking once the
    // pool outnumbers the cores), which is exactly what quantum batching
    // amortizes.
    let workers = env_u64("HCAPP_BENCH_WORKERS", 4).max(1) as usize;
    let trials = env_u64("HCAPP_BENCH_TRIALS", 3).max(1);
    let domains = n_each * 3;

    eprintln!(
        "bench_parallel: {ms} ms runs, {domains} domains, {workers} workers, best of {trials}"
    );

    // 1. HCAPP at 1 µs: serial vs pooled (one barrier per quantum).
    let hcapp_serial_s = secs_min(trials, || {
        scaled(n_each, ms, ControlScheme::Hcapp, 1).run();
    });
    let hcapp_pooled_s = secs_min(trials, || {
        scaled(n_each, ms, ControlScheme::Hcapp, 1).run_parallel(workers);
    });

    // 2. Fixed baseline on the pooled executor: per-quantum dispatch
    //    (batch_quanta = 1) vs batched dispatch (the default 32), on a
    //    coarse 10 µs tick: 10 ticks per quantum, the same dispatch-to-
    //    compute ratio the paper's 1 µs control quantum has at the default
    //    100 ns tick, so dispatch cost is actually visible.
    let coarse = SimDuration::from_micros(10);
    let fixed_batch1_s = secs_min(trials, || {
        scaled_with_tick(n_each, ms, ControlScheme::fixed_baseline(), 1, coarse)
            .run_parallel(workers);
    });
    let fixed_batch32_s = secs_min(trials, || {
        scaled_with_tick(n_each, ms, ControlScheme::fixed_baseline(), 32, coarse)
            .run_parallel(workers);
    });

    // 3. Suite sweep, cold cache vs warm cache.
    let cache_dir = std::env::temp_dir().join(format!("hcapp_bench_cache_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = RunCache::new(&cache_dir);
    let jobs = || -> Vec<(SystemConfig, RunConfig)> {
        let limit = PowerLimit::package_pin();
        combo_suite()
            .iter()
            .flat_map(|&combo| {
                ControlScheme::all().into_iter().map(move |scheme| {
                    (
                        SystemConfig::paper_system(combo, 7),
                        RunConfig::new(
                            SimDuration::from_millis(ms),
                            scheme,
                            limit.guardbanded_target(),
                        ),
                    )
                })
            })
            .collect()
    };
    // Cold is necessarily single-shot (the first run populates the cache);
    // warm reruns replay from disk, so best-of-N is fair.
    let sweep_cold_s = secs_min(1, || {
        run_all_cached(jobs(), workers, &cache);
    });
    let sweep_warm_s = secs_min(trials, || {
        run_all_cached(jobs(), workers, &cache);
    });
    let _ = std::fs::remove_dir_all(&cache_dir);

    let json = format!(
        "{{\n  \"schema\": \"hcapp.bench-parallel\",\n  \"version\": 1,\n  \
         \"ms\": {ms},\n  \"domains\": {domains},\n  \"workers\": {workers},\n  \
         \"hcapp_1us_serial_s\": {hcapp_serial_s:.6},\n  \
         \"hcapp_1us_pooled_s\": {hcapp_pooled_s:.6},\n  \
         \"fixed_pooled_batch1_s\": {fixed_batch1_s:.6},\n  \
         \"fixed_pooled_batch32_s\": {fixed_batch32_s:.6},\n  \
         \"sweep_cold_s\": {sweep_cold_s:.6},\n  \
         \"sweep_warm_s\": {sweep_warm_s:.6},\n  \
         \"batched_speedup\": {:.3},\n  \
         \"warm_over_cold\": {:.4}\n}}\n",
        fixed_batch1_s / fixed_batch32_s.max(1e-9),
        sweep_warm_s / sweep_cold_s.max(1e-9),
    );

    let out = ExperimentConfig::from_env().out_dir.join("BENCH_parallel.json");
    if let Some(parent) = out.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    print!("{json}");

    if fixed_batch32_s >= fixed_batch1_s {
        eprintln!(
            "WARNING: batched dispatch ({fixed_batch32_s:.3}s) did not beat \
             per-quantum dispatch ({fixed_batch1_s:.3}s) — rerun with a \
             larger HCAPP_BENCH_MS for a steadier signal"
        );
    }
    if sweep_warm_s > 0.25 * sweep_cold_s {
        eprintln!(
            "WARNING: warm sweep ({sweep_warm_s:.3}s) took more than 25% of \
             the cold sweep ({sweep_cold_s:.3}s)"
        );
    }
}
