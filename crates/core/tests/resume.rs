//! Kill-at-any-quantum resume equivalence: the crash-safe contract of
//! `hcapp::resume` (DESIGN §6h).
//!
//! Each case runs the same configuration twice: once uninterrupted (the
//! oracle) and once as a chain of `run_resumable` invocations where every
//! link but the last is stopped at an injector-chosen quantum — the
//! in-process equivalent of `kill -9`, since a stopped run flushes nothing
//! past its last checkpoint. The stitched result must be **byte-identical**
//! to the oracle on all three artifacts:
//!
//! * the [`hcapp::RunOutcome`], compared through the cache codec
//!   (`encode_outcome`, IEEE-754 bit patterns);
//! * the JSONL `hcapp.trace` sink, compared as raw bytes against
//!   `jsonl::export` of the oracle's ring;
//! * the `hcapp.report`, replayed offline from each trace.
//!
//! The matrix crosses fault plans (none/light/moderate/severe), kill quanta
//! (early, mid, seam-adjacent, chained double kills), and executors
//! (serial, pooled, pooled + adversarial schedule permutation, and the
//! batched fixed-voltage path).

use std::fs;
use std::path::PathBuf;

use hcapp::cache::encode_outcome;
use hcapp::coordinator::{RunConfig, Simulation};
use hcapp::limits::PowerLimit;
use hcapp::outcome::RunOutcome;
use hcapp::resume::{run_resumable, ResumeEnd, ResumeOptions};
use hcapp::scheme::ControlScheme;
use hcapp::system::SystemConfig;
use hcapp_analyze::StreamAnalyzer;
use hcapp_faults::FaultPlan;
use hcapp_sim_core::time::{SimDuration, SimTime};
use hcapp_sim_core::units::{Volt, Watt};
use hcapp_telemetry::jsonl;
use hcapp_telemetry::tracer::{RingTracer, SharedTracer};
use hcapp_workloads::combos::combo_suite;

/// Fresh scratch directory per case (process id + case tag keep parallel
/// test binaries and cases from colliding).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hcapp_resume_it_{}_{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The scenario under test: a 1 ms paper-system run with a mid-run
/// retarget, so the checkpoint must carry PID state, retarget cursor and
/// window trackers, not just the domains.
fn scenario(plan: Option<FaultPlan>, scheme: ControlScheme, batch: usize) -> (SystemConfig, RunConfig) {
    let sys = SystemConfig::paper_system(combo_suite()[3], 11); // Hi-Hi
    let limit = PowerLimit::package_pin();
    let mut run = RunConfig::new(
        SimDuration::from_millis(1),
        scheme,
        limit.guardbanded_target(),
    )
    .with_trace()
    .with_voltage_trace()
    .with_retarget(SimTime::from_micros(400), Watt::new(70.0))
    .with_batch_quanta(batch);
    run.track_windows = vec![SimDuration::from_micros(100)];
    if let Some(p) = plan {
        run = run.with_faults(p);
    }
    (sys, run)
}

/// Uninterrupted oracle: plain serial run with a ring tracer attached,
/// exported through the stock `jsonl::export` path.
fn oracle(sys: &SystemConfig, run: &RunConfig) -> (RunOutcome, String) {
    let ring = std::sync::Arc::new(std::sync::Mutex::new(RingTracer::new(1 << 20)));
    let handle: SharedTracer = ring.clone();
    let mut run = run.clone();
    run.tracer = Some(handle);
    let out = Simulation::new(sys.clone(), run).run();
    let events = ring.lock().unwrap().drain();
    let text = jsonl::export(events.iter(), &[("case", "resume-equivalence")]);
    (out, text)
}

/// Chain of resumable invocations: each `kill` quantum stops one link, the
/// final link runs to completion. Asserts every link but the first resumes
/// from a checkpoint when one exists.
fn chained(
    sys: &SystemConfig,
    run: &RunConfig,
    dir: &PathBuf,
    every: u64,
    workers: usize,
    permute_seed: Option<u64>,
    kills: &[u64],
) -> (RunOutcome, String) {
    let mut base = ResumeOptions::new(dir.join("hcapp.ckpt"))
        .with_checkpoint_every(every)
        .with_trace_sink(dir.join("hcapp.trace"))
        .with_trace_extra("case", "resume-equivalence");
    base.workers = workers;
    base.permute_seed = permute_seed;
    for (i, &kill) in kills.iter().enumerate() {
        let opts = base.clone().with_stop_at(kill);
        let summary = run_resumable(sys.clone(), run.clone(), &opts).unwrap();
        match summary.end {
            ResumeEnd::Stopped { quantum } => assert!(
                quantum >= kill,
                "link {i} stopped at {quantum}, before its kill quantum {kill}"
            ),
            ResumeEnd::Completed(_) => panic!("link {i} completed despite stop_at {kill}"),
        }
        // A link that got past the first checkpoint leaves one behind for
        // the next link to find.
        if kill >= every {
            assert!(summary.checkpoints_written > 0 || summary.resumed_from.is_some());
        }
    }
    let summary = run_resumable(sys.clone(), run.clone(), &base).unwrap();
    if kills.iter().any(|&k| k >= every) {
        assert!(
            summary.resumed_from.is_some(),
            "final link should resume from the kill chain's checkpoint"
        );
    }
    let out = match summary.end {
        ResumeEnd::Completed(out) => out,
        ResumeEnd::Stopped { quantum } => panic!("final link stopped at {quantum}"),
    };
    let text = fs::read_to_string(dir.join("hcapp.trace")).unwrap();
    (out, text)
}

/// Offline `hcapp.report` replay of a JSONL trace.
fn report_of(trace: &str) -> String {
    let mut a = StreamAnalyzer::new();
    a.consume_jsonl(trace).unwrap();
    a.report().to_json()
}

/// One matrix case: oracle vs killed-and-resumed chain, all three
/// artifacts byte-identical.
fn assert_equivalent(
    tag: &str,
    plan: Option<FaultPlan>,
    scheme: ControlScheme,
    batch: usize,
    every: u64,
    workers: usize,
    permute_seed: Option<u64>,
    kills: &[u64],
) {
    let dir = scratch(tag);
    let (sys, run) = scenario(plan, scheme, batch);
    let (want_out, want_trace) = oracle(&sys, &run);
    let (got_out, got_trace) = chained(&sys, &run, &dir, every, workers, permute_seed, kills);
    assert_eq!(
        encode_outcome(&got_out),
        encode_outcome(&want_out),
        "{tag}: RunOutcome diverged across the kill/resume seam"
    );
    assert_eq!(got_trace, want_trace, "{tag}: stitched trace is not byte-identical");
    // The stitched trace passes the validator (monotone timestamps, no
    // duplicated unique-per-quantum events across the seam)...
    jsonl::validate(&got_trace).unwrap();
    // ...and replays to the same report.
    assert_eq!(report_of(&got_trace), report_of(&want_trace), "{tag}: report diverged");
    let _ = fs::remove_dir_all(&dir);
}

// The 1 ms scenario has 1000 HCAPP quanta; checkpoints land every 64.

#[test]
fn serial_moderate_plan_killed_early() {
    assert_equivalent(
        "serial_moderate_early",
        Some(FaultPlan::moderate(7)),
        ControlScheme::Hcapp,
        1,
        64,
        0,
        None,
        &[137],
    );
}

#[test]
fn serial_severe_plan_killed_mid_run() {
    assert_equivalent(
        "serial_severe_mid",
        Some(FaultPlan::severe(42)),
        ControlScheme::Hcapp,
        1,
        64,
        0,
        None,
        &[500],
    );
}

#[test]
fn serial_light_plan_killed_on_final_quantum() {
    assert_equivalent(
        "serial_light_final",
        Some(FaultPlan::light(3)),
        ControlScheme::Hcapp,
        1,
        64,
        0,
        None,
        &[999],
    );
}

#[test]
fn serial_clean_run_killed_exactly_on_a_checkpoint_boundary() {
    assert_equivalent(
        "serial_clean_boundary",
        None,
        ControlScheme::Hcapp,
        1,
        64,
        0,
        None,
        &[256],
    );
}

#[test]
fn serial_quiet_plan_double_kill_chain() {
    assert_equivalent(
        "serial_quiet_double",
        Some(FaultPlan::quiet(5)),
        ControlScheme::Hcapp,
        1,
        64,
        0,
        None,
        &[137, 700],
    );
}

#[test]
fn pooled_moderate_plan_killed_early() {
    assert_equivalent(
        "pooled_moderate_early",
        Some(FaultPlan::moderate(7)),
        ControlScheme::Hcapp,
        1,
        64,
        2,
        None,
        &[137],
    );
}

#[test]
fn pooled_permuted_severe_plan_killed_late() {
    assert_equivalent(
        "pooled_permuted_severe_late",
        Some(FaultPlan::severe(42)),
        ControlScheme::Hcapp,
        1,
        64,
        3,
        Some(9),
        &[613],
    );
}

#[test]
fn serial_kill_before_first_checkpoint_restarts_fresh() {
    // Killed at quantum 10 < every 64: no checkpoint exists, the final
    // link starts fresh — and must still match the oracle exactly.
    assert_equivalent(
        "serial_fresh_restart",
        Some(FaultPlan::moderate(21)),
        ControlScheme::Hcapp,
        1,
        64,
        0,
        None,
        &[10],
    );
}

/// The batched fixed-voltage path: no tracer is attachable (tracing forces
/// single-quantum batches), so this case pins outcome equivalence only —
/// checkpoints land at 32-quantum batch boundaries and the resumed run
/// re-batches identically.
fn assert_batched_equivalent(tag: &str, workers: usize, permute_seed: Option<u64>, kills: &[u64]) {
    let dir = scratch(tag);
    let sys = SystemConfig::paper_system(combo_suite()[3], 11);
    // 10 ms at the 100 µs fixed quantum = 100 quanta = four 32-quantum
    // batches, so kills and checkpoints land at interior batch boundaries.
    let run = RunConfig::new(
        SimDuration::from_millis(10),
        ControlScheme::FixedVoltage(Volt::new(1.0)),
        PowerLimit::package_pin().guardbanded_target(),
    )
    .with_batch_quanta(32);
    let want = Simulation::new(sys.clone(), run.clone()).run();
    let mut base = ResumeOptions::new(dir.join("hcapp.ckpt")).with_checkpoint_every(2);
    base.workers = workers;
    base.permute_seed = permute_seed;
    for &kill in kills {
        let opts = base.clone().with_stop_at(kill);
        match run_resumable(sys.clone(), run.clone(), &opts).unwrap().end {
            ResumeEnd::Stopped { .. } => {}
            ResumeEnd::Completed(_) => panic!("{tag}: link completed despite stop_at {kill}"),
        }
    }
    let summary = run_resumable(sys.clone(), run.clone(), &base).unwrap();
    assert!(summary.resumed_from.is_some(), "{tag}: expected a resume");
    let got = match summary.end {
        ResumeEnd::Completed(out) => out,
        ResumeEnd::Stopped { quantum } => panic!("{tag}: final link stopped at {quantum}"),
    };
    assert_eq!(
        encode_outcome(&got),
        encode_outcome(&want),
        "{tag}: batched outcome diverged across the kill/resume seam"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn batched_serial_killed_mid_run() {
    assert_batched_equivalent("batched_serial", 0, None, &[40]);
}

#[test]
fn batched_pooled_permuted_killed_mid_run() {
    assert_batched_equivalent("batched_pooled_permuted", 2, Some(17), &[40]);
}

#[test]
fn resumable_fresh_run_matches_plain_run() {
    // No kills at all: the resumable driver itself must not perturb the
    // physics or the trace.
    assert_equivalent(
        "fresh_noop",
        Some(FaultPlan::moderate(99)),
        ControlScheme::Hcapp,
        1,
        64,
        0,
        None,
        &[],
    );
}

#[test]
fn validator_rejects_a_double_emitted_seam_quantum() {
    // Simulate a broken resume that forgot to truncate the sink: the seam
    // quantum's unique-per-quantum events appear twice. The JSONL
    // validator must reject the splice, while the correctly stitched trace
    // (same events, emitted once) passes.
    let dir = scratch("seam_double_emit");
    let (sys, run) = scenario(Some(FaultPlan::moderate(7)), ControlScheme::Hcapp, 1);
    let (_, trace) = oracle(&sys, &run);
    jsonl::validate(&trace).unwrap();
    // Find the last global_pid line and splice a copy of everything from
    // there to the end — the shape a non-truncating resume would produce.
    let lines: Vec<&str> = trace.lines().collect();
    let seam = lines
        .iter()
        .rposition(|l| l.contains("\"kind\":\"global_pid\""))
        .expect("trace has global_pid events");
    let mut doubled = String::new();
    for l in &lines {
        doubled.push_str(l);
        doubled.push('\n');
    }
    for l in &lines[seam..] {
        doubled.push_str(l);
        doubled.push('\n');
    }
    let err = jsonl::validate(&doubled).unwrap_err();
    assert!(err.contains("duplicate"), "unexpected validator error: {err}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn foreign_config_checkpoint_is_ignored() {
    let dir = scratch("foreign_config");
    let (sys, run) = scenario(Some(FaultPlan::moderate(7)), ControlScheme::Hcapp, 1);
    let base = ResumeOptions::new(dir.join("hcapp.ckpt"))
        .with_checkpoint_every(64)
        .with_trace_sink(dir.join("hcapp.trace"))
        .with_trace_extra("case", "resume-equivalence");
    // Leave a checkpoint behind from one configuration...
    let opts = base.clone().with_stop_at(200);
    run_resumable(sys.clone(), run.clone(), &opts).unwrap();
    // ...then run a *different* configuration against the same store: the
    // foreign checkpoint must be skipped, not applied.
    let (sys2, run2) = scenario(Some(FaultPlan::severe(8)), ControlScheme::Hcapp, 1);
    let summary = run_resumable(sys2.clone(), run2.clone(), &base).unwrap();
    assert!(summary.resumed_from.is_none(), "resumed from a foreign config's checkpoint");
    let got = match summary.end {
        ResumeEnd::Completed(out) => out,
        ResumeEnd::Stopped { quantum } => panic!("stopped at {quantum}"),
    };
    let (want, want_trace) = oracle(&sys2, &run2);
    assert_eq!(encode_outcome(&got), encode_outcome(&want));
    assert_eq!(fs::read_to_string(dir.join("hcapp.trace")).unwrap(), want_trace);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_checkpoint_falls_back_to_fresh_start() {
    let dir = scratch("corrupt_ckpt");
    let (sys, run) = scenario(None, ControlScheme::Hcapp, 1);
    let base = ResumeOptions::new(dir.join("hcapp.ckpt"))
        .with_checkpoint_every(64)
        .with_trace_sink(dir.join("hcapp.trace"))
        .with_trace_extra("case", "resume-equivalence");
    run_resumable(sys.clone(), run.clone(), &base.clone().with_stop_at(200)).unwrap();
    // Flip bytes in both slots so neither passes its checksum.
    for name in ["hcapp.ckpt", "hcapp.ckpt.1"] {
        let p = dir.join(name);
        if let Ok(text) = fs::read_to_string(&p) {
            fs::write(&p, text.replace("loop.", "l00p.")).unwrap();
        }
    }
    let summary = run_resumable(sys.clone(), run.clone(), &base).unwrap();
    assert!(summary.resumed_from.is_none(), "resumed from a corrupt checkpoint");
    let got = match summary.end {
        ResumeEnd::Completed(out) => out,
        ResumeEnd::Stopped { quantum } => panic!("stopped at {quantum}"),
    };
    let (want, want_trace) = oracle(&sys, &run);
    assert_eq!(encode_outcome(&got), encode_outcome(&want));
    assert_eq!(fs::read_to_string(dir.join("hcapp.trace")).unwrap(), want_trace);
    let _ = fs::remove_dir_all(&dir);
}

/// Golden bytes of one `hcapp.ckpt`: the on-disk format is a contract
/// (old checkpoints must stay resumable), so a codec change that alters a
/// single byte — an extra allocation-free fast path that drops a leading
/// zero, a re-joined payload that loses a line — fails here, not only in
/// the benchmark's byte counts. Hi-Hi, HCAPP, seeded `moderate` plan, the
/// default 20 µs / 1 ms / 10 ms window trackers, a trace sink, cadence 64,
/// stopped at quantum 300 (last checkpoint at 256).
#[test]
fn checkpoint_bytes_are_golden() {
    let dir = scratch("golden_ckpt");
    let sys = SystemConfig::paper_system(combo_suite()[3], 11);
    let run = RunConfig::new(
        SimDuration::from_millis(1),
        ControlScheme::Hcapp,
        PowerLimit::package_pin().guardbanded_target(),
    )
    .with_faults(FaultPlan::moderate(7));
    let opts = ResumeOptions::new(dir.join("hcapp.ckpt"))
        .with_checkpoint_every(64)
        .with_trace_sink(dir.join("hcapp.trace"))
        .with_trace_extra("case", "golden-checkpoint")
        .with_stop_at(300);
    let summary = run_resumable(sys, run, &opts).unwrap();
    assert_eq!(summary.checkpoints_written, 4);
    let bytes = fs::read(dir.join("hcapp.ckpt")).unwrap();
    let mut h = hcapp_cache::Hasher::new();
    h.write_bytes(&bytes);
    let digest = h.finish().to_hex();
    assert_eq!(
        (bytes.len(), digest.as_str()),
        (1_881_993, "3a900f3fd22b55dd895d1ad01c67811a")
    );
    let _ = fs::remove_dir_all(&dir);
}
