//! Determinism regression tests backing simlint rule L3: the property the
//! static rule protects (bit-identical reruns, serial == parallel) checked
//! end-to-end on the paper system. If someone allowlists their way past L3
//! with something genuinely nondeterministic, these fail.

use hcapp::cache::{decode_outcome, encode_outcome, job_key, run_all_cached, RunCache};
use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::outcome::RunOutcome;
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_faults::FaultPlan;
use hcapp_sim_core::time::SimDuration;
use hcapp_sim_core::units::Watt;
use hcapp_telemetry::jsonl;
use hcapp_telemetry::tracer::{RingTracer, SharedTracer};
use hcapp_workloads::combos::combo_suite;

fn config(scheme: ControlScheme, batch_quanta: usize) -> (SystemConfig, RunConfig) {
    let sys = SystemConfig::paper_system(combo_suite()[3], 7); // Hi-Hi
    let run = RunConfig::new(SimDuration::from_millis(2), scheme, Watt::new(84.0))
        .with_trace()
        .with_voltage_trace()
        .with_batch_quanta(batch_quanta);
    (sys, run)
}

fn sim() -> Simulation {
    let (sys, run) = config(ControlScheme::Hcapp, 1);
    Simulation::new(sys, run)
}

/// Field-by-field bitwise comparison of two outcomes.
fn assert_outcomes_identical(a: &RunOutcome, b: &RunOutcome, what: &str) {
    assert_eq!(a.avg_power, b.avg_power, "{what}");
    assert_eq!(a.energy_j, b.energy_j, "{what}");
    assert_eq!(a.work, b.work, "{what}");
    assert_eq!(a.windowed_max, b.windowed_max, "{what}");
    assert_eq!(a.mean_global_voltage, b.mean_global_voltage, "{what}");
    assert_eq!(a.trace, b.trace, "{what}");
    assert_eq!(a.voltage_trace, b.voltage_trace, "{what}");
    assert_eq!(a.resilience, b.resilience, "{what}");
}

#[test]
fn serial_equals_parallel_bitwise() {
    let serial = sim().run();
    for workers in [1, 2, 4] {
        let parallel = sim().run_parallel(workers);
        assert_eq!(serial.avg_power, parallel.avg_power, "{workers} workers");
        assert_eq!(serial.energy_j, parallel.energy_j, "{workers} workers");
        assert_eq!(serial.work, parallel.work, "{workers} workers");
        assert_eq!(serial.windowed_max, parallel.windowed_max);
        assert_eq!(
            serial.mean_global_voltage,
            parallel.mean_global_voltage
        );
        let ts = serial.trace.as_ref().expect("trace requested");
        let tp = parallel.trace.as_ref().expect("trace requested");
        assert_eq!(ts.values(), tp.values(), "{workers} workers");
        let vs = serial.voltage_trace.as_ref().expect("trace requested");
        let vp = parallel.voltage_trace.as_ref().expect("trace requested");
        assert_eq!(vs.values(), vp.values(), "{workers} workers");
    }
}

/// The barrier executor against serial, byte for byte: every pool size
/// from inline (`1`) through more threads than domains, contiguous shards
/// and the sanitizer's seeded non-contiguous ones, on the run with the most
/// per-domain traffic — HCAPP under a `moderate` fault plan (watchdogs,
/// throttles, heartbeats) with a ring tracer attached, whose event stream
/// must match too.
#[test]
fn pooled_and_permuted_match_serial_bytes_under_faults_and_tracing() {
    let sys = SystemConfig::paper_system(combo_suite()[3], 7); // Hi-Hi
    let run = RunConfig::new(
        SimDuration::from_millis(1),
        ControlScheme::Hcapp,
        Watt::new(84.0),
    )
    .with_faults(FaultPlan::moderate(7));
    let traced = |exec: &dyn Fn(Simulation) -> RunOutcome| {
        let ring = std::sync::Arc::new(std::sync::Mutex::new(RingTracer::new(1 << 20)));
        let handle: SharedTracer = ring.clone();
        let out = exec(Simulation::new(
            sys.clone(),
            run.clone().with_tracer(handle),
        ));
        let mut ring = ring.lock().expect("tracer lock");
        assert_eq!(ring.dropped(), 0, "ring sized for the whole run");
        (
            encode_outcome(&out),
            jsonl::export(ring.drain().iter(), &[]),
        )
    };
    let (serial, serial_trace) = traced(&|sim| sim.run());
    assert!(
        serial_trace.lines().count() > 1,
        "the traced run emits events"
    );
    let n = sys.domains.len();
    for workers in [1, 2, 3, n + 2] {
        let (pooled, trace) = traced(&|sim| sim.run_parallel(workers));
        assert_eq!(serial, pooled, "outcome, {workers} workers");
        assert_eq!(serial_trace, trace, "trace, {workers} workers");
        for seed in [0, 1, 2] {
            let (permuted, trace) = traced(&|sim| sim.run_parallel_permuted(workers, seed));
            assert_eq!(serial, permuted, "outcome, {workers} workers, seed {seed}");
            assert_eq!(serial_trace, trace, "trace, {workers} workers, seed {seed}");
        }
    }
}

/// The full acceptance matrix: serial, pooled, batched-pooled and cached
/// outcomes must all be byte-identical, for a dynamic scheme (batching is
/// internally disabled — PID feedback — but the knob must still be a
/// no-op) and for the fixed baseline (where multi-quantum batches really
/// ship).
#[test]
fn serial_pooled_batched_cached_all_bitwise_identical() {
    let cache_dir = std::env::temp_dir().join(format!(
        "hcapp_determinism_cache_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = RunCache::new(&cache_dir);

    for scheme in [ControlScheme::Hcapp, ControlScheme::fixed_baseline()] {
        let (sys, run) = config(scheme, 1);
        let reference = Simulation::new(sys.clone(), run.clone()).run();

        for batch in [1, 32, 1000] {
            let (bs, br) = config(scheme, batch);
            let serial = Simulation::new(bs.clone(), br.clone()).run();
            assert_outcomes_identical(&reference, &serial, "serial batch knob");
            for workers in [1, 3] {
                let pooled = Simulation::new(bs.clone(), br.clone()).run_parallel(workers);
                assert_outcomes_identical(
                    &reference,
                    &pooled,
                    &format!("{scheme:?} batch={batch} workers={workers}"),
                );
            }
        }

        // Cached replay: cold run populates, warm run replays bit-exactly.
        let (cold, s1) = run_all_cached(vec![(sys.clone(), run.clone())], 2, &cache);
        assert_eq!((s1.hits, s1.misses), (0, 1));
        assert_outcomes_identical(&reference, &cold[0], "cold cached run");
        let (warm, s2) = run_all_cached(vec![(sys, run)], 2, &cache);
        assert_eq!((s2.hits, s2.misses), (1, 0));
        assert_outcomes_identical(&reference, &warm[0], "warm cached run");
        assert_eq!(encode_outcome(&warm[0]), encode_outcome(&reference));
    }

    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The cache key must see through everything that changes results and
/// ignore the one knob that does not, and the codec must round-trip the
/// outcome of a real run exactly.
#[test]
fn cache_key_and_codec_contract() {
    let (sys, run) = config(ControlScheme::Hcapp, 1);
    let key = job_key(&sys, &run).expect("untraced runs are cacheable");
    assert_eq!(Some(key), job_key(&sys, &run.clone().with_batch_quanta(64)));
    let (sys2, run2) = config(ControlScheme::fixed_baseline(), 1);
    assert_ne!(Some(key), job_key(&sys2, &run2));

    let out = Simulation::new(sys, run).run();
    let decoded = decode_outcome(&encode_outcome(&out)).expect("codec round-trip");
    assert_outcomes_identical(&out, &decoded, "codec round-trip");
}

#[test]
fn rerun_is_bit_identical() {
    let a = sim().run();
    let b = sim().run();
    assert_eq!(a.avg_power, b.avg_power);
    assert_eq!(a.energy_j, b.energy_j);
    assert_eq!(a.work, b.work);
    assert_eq!(
        a.trace.expect("trace").values(),
        b.trace.expect("trace").values()
    );
}
